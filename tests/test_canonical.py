"""``canonical_form`` against a brute-force oracle, and its invariance.

The oracle minimizes the edge encoding over every vertex order that lists
the vertices class by class, where a class groups the vertices of one
(2-edge degree, 3-edge degree).  Any isomorphism maps classes onto classes,
so it is a canonical form too, only exponentially slower; both must split
the same instances into the same classes.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berge import validate
from berge.constructions import (
    FAMILIES,
    extremal_disjoint_sts,
    fano,
    matching_k2,
    star_k3,
    sts_bose,
    sts_skolem,
    two_edge_clique,
)
from berge.enumeration import (
    _BoundCampaign,
    _run_campaign,
    canonical_form,
    enumerate_hypergraphs,
    random_linear,
)
from berge.hypergraph import LinearHypergraph


def _brute_force_form(h):
    degrees = {v: (0, 0) for v in range(h.n)}
    for e in h.edges:
        for v in e:
            d2, d3 = degrees[v]
            degrees[v] = (d2 + 1, d3) if len(e) == 2 else (d2, d3 + 1)
    classes = {}
    for v in range(h.n):
        classes.setdefault(degrees[v], []).append(v)
    best = None
    pools = [itertools.permutations(classes[key]) for key in sorted(classes)]
    for arrangement in itertools.product(*pools):
        relabel = {old: new for new, old in
                   enumerate(v for group in arrangement for v in group)}
        edges = tuple(sorted(tuple(sorted(relabel[v] for v in e)) for e in h.edges))
        if best is None or edges < best:
            best = edges
    return h.n, best


def _assert_same_classes(instances):
    pairs = {(_brute_force_form(h), canonical_form(h)) for h in instances}
    assert len({a for a, _ in pairs}) == len(pairs)
    assert len({b for _, b in pairs}) == len(pairs)


def test_every_mixed_instance_up_to_5():
    instances = []
    for n in range(1, 6):
        enumerate_hypergraphs(n, "23", instances.append)
    assert len(instances) == 2652
    _assert_same_classes(instances)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_remark_tie_sets(n, k):
    # the stacks at the maximum shadow size that `verify remark` classifies
    lhs, rhs = {2: (1, n), 3: (2, 3 * (n - 1))}[k]
    camp, acc = _run_campaign(
        (_BoundCampaign, (n, k, "23", lhs, rhs)), 1)
    ties = [LinearHypergraph(n=n, edges=tuple(camp.walk.cands[j] for j in s))
            for s in acc.best]
    assert ties
    _assert_same_classes(ties)


@pytest.mark.parametrize("uniformity", ["23", "3"])
def test_random_instances(uniformity):
    _assert_same_classes(
        [random_linear(n, random.Random(f"canon:{n}:{i}"), uniformity)
         for n in (6, 7, 8) for i in range(50)])


def _relabeled(h, perm):
    return validate(h.n, [tuple(perm[v] for v in e) for e in h.edges])


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2 ** 32),
       uniformity=st.sampled_from(["23", "3"]), data=st.data())
def test_invariant_under_relabeling_random(n, seed, uniformity, data):
    h = random_linear(n, random.Random(seed), uniformity)
    perm = data.draw(st.permutations(range(n)))
    assert canonical_form(_relabeled(h, perm)) == canonical_form(h)


FAMILY_MEMBERS = {
    "fano": fano(),
    "sts_bose": sts_bose(15),
    "sts_skolem": sts_skolem(13),
    "disjoint_sts": extremal_disjoint_sts(9, 2),
    "star_k3": star_k3(13),
    "matching_k2": matching_k2(12),
    "two_edge_clique": two_edge_clique(7),
}


@pytest.mark.parametrize("family", sorted(FAMILY_MEMBERS))
def test_invariant_under_relabeling_families(family):
    assert set(FAMILY_MEMBERS) == set(FAMILIES)
    h = FAMILY_MEMBERS[family]
    want = canonical_form(h)

    @settings(max_examples=10, deadline=None)
    @given(perm=st.permutations(range(h.n)))
    def check(perm):
        assert canonical_form(_relabeled(h, perm)) == want

    check()
