import itertools

import pytest

from berge import (
    BadParityError,
    BadResidueError,
    has_berge_path,
    longest_berge_path,
    shadow,
    validate,
)
from berge import constructions, hypergraph
from berge.constructions import (
    build,
    extremal_disjoint_sts,
    fano,
    matching_k2,
    star_k3,
    steiner_triple_system,
    sts_bose,
    sts_skolem,
    two_edge_clique,
)


def _pairs_covered_once(h):
    count = {p: 0 for p in itertools.combinations(range(h.n), 2)}
    for e in h.edges:
        for p in itertools.combinations(e, 2):
            count[p] += 1
    return all(c == 1 for c in count.values())


def test_fano():
    h = fano()
    assert h.n == 7 and h.m == 7
    assert _pairs_covered_once(h)
    assert shadow(h).edge_count == 21
    # edge count meets the path-free bound with k = n = 7 exactly
    assert 6 * h.m == (7 - 1) * h.n


@pytest.mark.parametrize("n", [3, 9, 15, 21])
def test_bose(n):
    h = sts_bose(n)
    assert h.m == n * (n - 1) // 6
    assert _pairs_covered_once(h)


@pytest.mark.parametrize("n", [7, 13, 19])
def test_skolem(n):
    h = sts_skolem(n)
    assert h.m == n * (n - 1) // 6
    assert _pairs_covered_once(h)


def test_sts_residue_errors():
    with pytest.raises(BadResidueError):
        sts_bose(8)
    with pytest.raises(BadResidueError):
        sts_skolem(9)
    with pytest.raises(BadResidueError):
        steiner_triple_system(5)


def test_disjoint_sts_certificate():
    for copies in (1, 2):
        h = extremal_disjoint_sts(7, copies)
        n = 7 * copies
        assert h.n == n
        assert 6 * h.m == (7 - 1) * n
        assert not has_berge_path(h, 7)
    h = extremal_disjoint_sts(3, 3)
    assert h == matching_k2(9)
    with pytest.raises(BadResidueError):
        extremal_disjoint_sts(7, 0)


def test_disjoint_sts_validates_once(monkeypatch):
    # one validation for the block and one for the union: adding one copy
    # at a time would validate the growing union again for every copy
    calls = []

    def counting(n, raw_edges):
        raw_edges = list(raw_edges)
        calls.append(len(raw_edges))
        return validate(n, raw_edges)

    monkeypatch.setattr(hypergraph, "validate", counting)
    monkeypatch.setattr(constructions, "validate", counting)
    h = extremal_disjoint_sts(7, 40)
    assert (h.n, h.m) == (280, 280)
    assert calls == [7, 280]


def test_star_certificate():
    for n in (3, 5, 7, 9):
        h = star_k3(n)
        assert 2 * shadow(h).edge_count == 3 * (n - 1)
        assert not has_berge_path(h, 3)
    assert longest_berge_path(star_k3(7)).length == 2
    with pytest.raises(BadParityError):
        star_k3(6)


def test_matching_certificate():
    for n in (3, 6, 9):
        h = matching_k2(n)
        assert shadow(h).edge_count == n
        assert not has_berge_path(h, 2)
        assert longest_berge_path(h).length == 1
    with pytest.raises(BadResidueError):
        matching_k2(7)


def test_two_edge_clique():
    h = two_edge_clique(4)
    assert h.m == 6 and shadow(h).edge_count == 6
    assert not has_berge_path(h, 4)
    assert 2 * shadow(h).edge_count == (4 - 1) * 4
    assert two_edge_clique(2).m == 1
    assert has_berge_path(two_edge_clique(5), 4)
    with pytest.raises(BadResidueError):
        two_edge_clique(0)


def test_all_generators_validate():
    gens = [
        fano(),
        sts_bose(9),
        sts_skolem(7),
        extremal_disjoint_sts(7, 2),
        star_k3(7),
        matching_k2(6),
        two_edge_clique(5),
    ]
    for h in gens:
        assert validate(h.n, h.edges) == h


def test_build_dispatch():
    assert build("fano") == fano()
    assert build("star_k3", n=5) == star_k3(5)
    assert build("disjoint_sts", k=7, copies=2) == extremal_disjoint_sts(7, 2)
    with pytest.raises(ValueError):
        build("nope")
    with pytest.raises(ValueError):
        build("star_k3")  # missing n
    with pytest.raises(ValueError):
        build("fano", n=5)  # fano takes no n
