import itertools
import random

import pytest

from berge import (
    DuplicateEdgeError,
    EdgeSizeError,
    FormatError,
    LinearityError,
    VertexOutOfRangeError,
    components,
    degree,
    disjoint_union,
    format_hg,
    parse_hg,
    restrict,
    shadow,
    shadow_degree,
    validate,
)


def test_validate_single_triple():
    h = validate(3, [(0, 1, 2)])
    assert h.m == 1 and h.n == 3


def test_validate_rejects_shared_pair():
    with pytest.raises(LinearityError):
        validate(4, [(0, 1, 2), (0, 1, 3)])


def test_validate_fano_pair_coverage(fano):
    # brute force: all 21 pairs covered exactly once
    count = {p: 0 for p in itertools.combinations(range(7), 2)}
    for e in fano.edges:
        for p in itertools.combinations(e, 2):
            count[p] += 1
    assert all(c == 1 for c in count.values())


@pytest.mark.parametrize("bad,err", [
    ([(0, 1, 2, 3)], EdgeSizeError),
    ([(0,)], EdgeSizeError),
    ([(0, 0, 1)], EdgeSizeError),
    ([(0, 5)], VertexOutOfRangeError),
    ([(0, 1), (1, 0)], DuplicateEdgeError),
    ([(-1, 1)], VertexOutOfRangeError),
])
def test_validate_rejections(bad, err):
    with pytest.raises(err):
        validate(3, bad)


def test_validate_edge_order_irrelevant():
    assert validate(4, [(2, 1, 0), (3, 0)]) == validate(4, [(0, 3), (0, 1, 2)])


def test_empty_and_edgeless_are_legal():
    assert validate(0, []).n == 0
    assert validate(5, []).m == 0


def test_shadow_counts(fano, one_triple):
    assert shadow(one_triple).edge_count == 3
    assert shadow(fano).edge_count == 21
    h = validate(5, [(0, 1), (2, 3, 4)])
    assert shadow(h).edge_count == 4


def test_shadow_count_identity_random():
    # e(shadow) = m2 + 3*m3 for linear hypergraphs
    rng = random.Random(7)
    from berge.enumeration import random_linear

    for i in range(200):
        h = random_linear(rng.randint(1, 9), random.Random(f"shadow:{i}"))
        assert shadow(h).edge_count == h.m2 + 3 * h.m3


def test_shadow_cover_single_valued(fano):
    # each shadow pair lies in exactly one hyperedge; pairs come sorted
    sg = shadow(fano)
    assert list(sg.pairs) == sorted(sg.pairs)
    for p in sg.pairs:
        assert len([f for f in fano.edges if set(p) <= set(f)]) == 1
    assert shadow(validate(5, [(2, 3, 4), (0, 1)])).pairs == ((0, 1), (2, 3), (2, 4), (3, 4))


def test_degrees(fano, one_triple):
    for v in range(7):
        assert degree(fano, v) == 3
        assert shadow_degree(fano, v) == 6
    assert degree(one_triple, 0) == 1
    assert shadow_degree(one_triple, 0) == 2
    h = validate(4, [(0, 1, 2)])
    assert degree(h, 3) == 0 and shadow_degree(h, 3) == 0


def test_shadow_degree_sum_is_twice_shadow():
    from berge.enumeration import random_linear

    for i in range(100):
        h = random_linear(8, random.Random(f"deg:{i}"))
        total = sum(shadow_degree(h, v) for v in range(h.n))
        assert total == 2 * shadow(h).edge_count


def test_restrict_triple_to_pair():
    h = validate(3, [(0, 1, 2)])
    r, mapping = restrict(h, [0, 1])
    assert r.edges == ((0, 1),)
    assert mapping == {0: 0, 1: 1}


def test_restrict_drops_only_small_cuts(fano):
    r, _ = restrict(fano, range(6))
    assert r.n == 6
    assert r.m2 == 3 and r.m3 == 4
    # still a valid linear hypergraph: revalidation happens inside restrict


def test_restrict_identity_on_uncovered_vertex():
    h = validate(4, [(0, 1, 2)])
    r, mapping = restrict(h, [0, 1, 2])
    assert r.edges == h.edges and r.n == 3


def test_restrict_closure_random():
    # restriction of a valid linear hypergraph always revalidates
    from berge.enumeration import random_linear

    rng = random.Random(3)
    for i in range(200):
        h = random_linear(rng.randint(1, 9), random.Random(f"res:{i}"))
        keep = [v for v in range(h.n) if rng.random() < 0.6]
        r, mapping = restrict(h, keep)
        assert r.n == len(keep)
        assert validate(r.n, r.edges) == r


def test_components(fano, two_triples):
    assert components(fano) == [list(range(7))]
    assert components(two_triples) == [[0, 1, 2], [3, 4, 5]]
    edgeless = validate(4, [])
    assert components(edgeless) == [[0], [1], [2], [3]]


def test_disjoint_union(fano, one_triple):
    du = disjoint_union(fano, fano)
    assert (du.n, du.m) == (14, 14)
    assert shadow(du).edge_count == 2 * shadow(fano).edge_count
    assert disjoint_union(fano, validate(0, [])) == fano
    tt = disjoint_union(one_triple, one_triple)
    assert tt.n == 6 and tt.m == 2 and len(components(tt)) == 2


def test_hg_round_trip(fano):
    assert parse_hg(format_hg(fano)) == fano
    text = "# comment\n3 1\n0 1 2\n"
    assert parse_hg(text) == validate(3, [(0, 1, 2)])


@pytest.mark.parametrize("text", [
    "",
    "3\n",
    "3 2\n0 1 2\n",
    "x y\n0 1\n",
    "3 1\n0 z 2\n",
])
def test_hg_format_errors(text):
    with pytest.raises(FormatError):
        parse_hg(text)


def test_hg_semantic_errors_use_validation():
    with pytest.raises(LinearityError):
        parse_hg("4 2\n0 1 2\n0 1 3\n")
    with pytest.raises(VertexOutOfRangeError):
        parse_hg("3 1\n0 1 5\n")
