from math import factorial

import pytest

from berge import validate
from berge.enumeration import (
    _BoundCampaign,
    _candidates,
    canonical_form,
    enumerate_hypergraphs,
)
from berge.solver import has_berge_path
from burnside import class_count, cycle_types


def test_cycle_type_sizes_sum_to_the_group_order():
    for n in range(1, 10):
        assert sum(size for _lengths, size in cycle_types(n)) == factorial(n)


@pytest.mark.parametrize("n,uniformity,labeled,classes", [
    (6, "23", 173_808, 528),
    (7, "23", 31_590_702, 9_311),
    (8, "3", 231_577, 32),
    (9, "3", 21_286_940, 163),
])
def test_class_counts(n, uniformity, labeled, classes):
    assert class_count(n, uniformity, labeled) == (classes, 0)


@pytest.mark.parametrize("n,uniformity", [
    (1, "23"), (2, "23"), (3, "23"), (4, "23"), (5, "23"), (7, "3"),
])
def test_class_counts_match_canonical_form(n, uniformity):
    labeled = []
    enumerate_hypergraphs(n, uniformity, labeled.append)
    forms = {canonical_form(h) for h in labeled}
    assert class_count(n, uniformity, len(labeled)) == (len(forms), 0)


@pytest.mark.parametrize("n,k,uniformity,lhs,free,ties,free_classes,tie_classes", [
    (6, 4, "23", 2, 7_962, 180, 63, 2),    # theorem-shadow
    (6, 5, "23", 2, 35_520, 30, 162, 1),   # theorem-shadow
    (7, 7, "3", 6, 5_596, 30, 14, 1),      # theorem-uniform: the Fano plane
    (8, 7, "3", 6, 208_897, 240, 28, 1),   # theorem-uniform
])
def test_path_free_and_extremal_class_counts(n, k, uniformity, lhs, free, ties,
                                             free_classes, tie_classes):
    # the identity terms are the bound walk's labeled counts; every other
    # term filters the g-invariant instances with has_berge_path, which the
    # walk's own prune does not use
    acc, _units = _BoundCampaign(n, k, uniformity, lhs, (k - 1) * n).run_top(None)
    assert (acc.free, len(acc.best)) == (free, ties)

    def path_free(edges, _pairs):
        return not has_berge_path(validate(n, edges), k)

    def extremal(edges, pairs):
        return pairs.bit_count() == acc.max_shadow and path_free(edges, pairs)

    assert class_count(n, uniformity, free, path_free) == (free_classes, 0)
    assert class_count(n, uniformity, ties, extremal) == (tie_classes, 0)
    cands = _candidates(n, uniformity)[0]
    forms = {canonical_form(validate(n, [cands[j] for j in s])) for s in acc.best}
    assert len(forms) == tie_classes
