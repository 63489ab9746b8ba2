import itertools
import random

import pytest

from berge import (
    DuplicateEdgeError,
    EdgeSizeError,
    FormatError,
    LinearityError,
    VertexOutOfRangeError,
    degree,
    disjoint_union,
    format_hg,
    parse_hg,
    shadow,
    shadow_degree,
    validate,
)
from berge.hypergraph import edge_components


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
    ([(True, 2)], VertexOutOfRangeError),
    ([(2, False)], VertexOutOfRangeError),
])
def test_validate_rejections(bad, err):
    with pytest.raises(err):
        validate(3, bad)


# The error, and its message, that each bad input gets.  Size and range are
# decided edge by edge in input order, each edge's vertices in sorted order;
# duplicates and shared pairs are found in sorted edge order, and a
# LinearityError names the first edge holding the pair.
ERROR_PRECEDENCE = [
    (3, [(0, 1, 2, 3), (0, 5)], EdgeSizeError,
     "hyperedge (0, 1, 2, 3) must have 2 or 3 distinct vertices"),
    (3, [(0, 5), (0, 1, 2, 3)], VertexOutOfRangeError,
     "vertex 5 out of range [0, 3) in edge (0, 5)"),
    (3, [(0, 5), (0,)], VertexOutOfRangeError,
     "vertex 5 out of range [0, 3) in edge (0, 5)"),
    (3, [(7,), (0, 5)], EdgeSizeError,
     "hyperedge (7,) must have 2 or 3 distinct vertices"),
    (3, [(0, 0, 1), (0, 9)], EdgeSizeError,
     "hyperedge (0, 0, 1) must have 2 or 3 distinct vertices"),
    (3, [(0, 9), (1, 1)], VertexOutOfRangeError,
     "vertex 9 out of range [0, 3) in edge (0, 9)"),
    (3, [(1, 2), (2, 1, 2)], EdgeSizeError,
     "hyperedge (2, 1, 2) must have 2 or 3 distinct vertices"),
    (3, [(0, 1, 9, 9)], EdgeSizeError,
     "hyperedge (0, 1, 9, 9) must have 2 or 3 distinct vertices"),
    (3, [(1, 2), (6, 0, 5)], VertexOutOfRangeError,
     "vertex 5 out of range [0, 3) in edge (0, 5, 6)"),
    (3, [(0, -1, 2)], VertexOutOfRangeError,
     "vertex -1 out of range [0, 3) in edge (-1, 0, 2)"),
    (3, [(0, 1.5)], VertexOutOfRangeError,
     "vertex 1.5 out of range [0, 3) in edge (0, 1.5)"),
    (3, [(0, 1), (True, 2)], VertexOutOfRangeError,
     "vertex True out of range [0, 3) in edge (True, 2)"),
    (3, ["01"], VertexOutOfRangeError,
     "vertex '0' out of range [0, 3) in edge ('0', '1')"),
    (-1, [(0, 1, 2, 3)], VertexOutOfRangeError,
     "vertex count must be non-negative, got -1"),
    (3, [(0, 1), (1, 0)], DuplicateEdgeError, "hyperedge (0, 1) appears twice"),
    (5, [(3, 4), (0, 1), (0, 1), (1, 2, 0)], DuplicateEdgeError,
     "hyperedge (0, 1) appears twice"),
    (4, [(0, 1, 3), (0, 1, 2)], LinearityError,
     "edges (0, 1, 2) and (0, 1, 3) share the pair (0, 1)"),
    (4, [(2, 3), (0, 1, 2), (0, 2, 3)], LinearityError,
     "edges (0, 1, 2) and (0, 2, 3) share the pair (0, 2)"),
    (5, [(3, 4), (0, 1, 2), (2, 3, 4), (0, 1)], LinearityError,
     "edges (0, 1) and (0, 1, 2) share the pair (0, 1)"),
    (5, [(2, 4), (3, 4), (0, 2, 4), (3, 4)], LinearityError,
     "edges (0, 2, 4) and (2, 4) share the pair (2, 4)"),
    (6, [(4, 5), (0, 1, 2), (2, 1)], LinearityError,
     "edges (0, 1, 2) and (1, 2) share the pair (1, 2)"),
    (9, [(5, 7, 8), (1, 7, 8)], LinearityError,
     "edges (1, 7, 8) and (5, 7, 8) share the pair (7, 8)"),
    # (2, 3, 4) meets two earlier edges: its pairs are tried in
    # combinations order, so (2, 4) is named before (3, 4)
    (5, [(2, 3, 4), (1, 3, 4), (0, 2, 4)], LinearityError,
     "edges (0, 2, 4) and (2, 3, 4) share the pair (2, 4)"),
]


@pytest.mark.parametrize("n,bad,err,msg", ERROR_PRECEDENCE)
def test_validate_error_precedence(n, bad, err, msg):
    with pytest.raises(err) as exc:
        validate(n, bad)
    assert type(exc.value) is err and str(exc.value) == msg


def test_validate_edge_order_irrelevant():
    assert validate(4, [(2, 1, 0), (3, 0)]) == validate(4, [(0, 3), (0, 1, 2)])


def test_empty_and_edgeless_are_legal():
    assert validate(0, []).n == 0
    with pytest.raises(VertexOutOfRangeError):
        validate(-1, [])
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
        m2 = sum(1 for e in h.edges if len(e) == 2)
        pairs = shadow(h).pairs
        assert len(pairs) == m2 + 3 * (h.m - m2)
        assert all(p < q for p, q in zip(pairs, pairs[1:]))


def test_shadow_cover_single_valued(fano):
    # each shadow pair lies in exactly one hyperedge; pairs come strictly
    # ascending, so no pair repeats
    sg = shadow(fano)
    assert all(p < q for p, q in zip(sg.pairs, sg.pairs[1:]))
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
    with pytest.raises(VertexOutOfRangeError):
        degree(h, 4)
    with pytest.raises(VertexOutOfRangeError):
        shadow_degree(h, -1)


def test_shadow_degree_sum_is_twice_shadow():
    from berge.enumeration import random_linear

    for i in range(100):
        h = random_linear(8, random.Random(f"deg:{i}"))
        total = sum(shadow_degree(h, v) for v in range(h.n))
        assert total == 2 * shadow(h).edge_count


def test_edge_components(fano, two_triples):
    # isolated vertices form no component here
    assert edge_components(fano) == [list(range(7))]
    assert sorted(edge_components(two_triples)) == [[0, 1, 2], [3, 4, 5]]
    assert edge_components(validate(4, [])) == []
    assert sorted(edge_components(validate(6, [(4, 5), (0, 2, 4)]))) == [[0, 2, 4, 5]]


def test_disjoint_union(fano, one_triple):
    du = disjoint_union(fano, fano)
    assert (du.n, du.m) == (14, 14)
    assert shadow(du).edge_count == 2 * shadow(fano).edge_count
    assert disjoint_union(fano, validate(0, [])) == fano
    tt = disjoint_union(one_triple, one_triple)
    assert tt.n == 6 and tt.m == 2 and len(edge_components(tt)) == 2
    assert disjoint_union() == validate(0, [])
    assert disjoint_union(fano) == fano
    path = validate(4, [(0, 1), (1, 2, 3)])
    three = disjoint_union(one_triple, fano, path)
    assert three == disjoint_union(disjoint_union(one_triple, fano), path)
    assert three == disjoint_union(one_triple, disjoint_union(fano, path))
    assert (three.n, three.m) == (14, 10)


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


@pytest.mark.parametrize("text,err,msg", [
    # a non-integer line is a format error even after an edge-size error
    ("3 2\n0 1 2 3\n0 x\n", FormatError, "non-integer vertex in line '0 x'"),
    ("3 2\n0 1 5\n0 x\n", FormatError, "non-integer vertex in line '0 x'"),
    ("3 1\n0 1 1\n", EdgeSizeError, "hyperedge (0, 1, 1) must have 2 or 3 distinct vertices"),
    ("4 2\n0 1 3\n0 1 2\n", LinearityError,
     "edges (0, 1, 2) and (0, 1, 3) share the pair (0, 1)"),
    ("3 1 1\n0 1 2\n", FormatError, "header must be 'n m', got '3 1 1'"),
    ("3 x\n0 1 2\n", FormatError, "non-integer header '3 x'"),
    ("3 2\n0 1 2\n", FormatError, "header declares 2 edges but 1 lines follow"),
    ("3 1\n0 1 2 # tail\n", FormatError, "non-integer vertex in line '0 1 2 # tail'"),
])
def test_hg_error_precedence(text, err, msg):
    with pytest.raises(err) as exc:
        parse_hg(text)
    assert type(exc.value) is err and str(exc.value) == msg


def test_hg_lines_are_stripped():
    want = validate(3, [(0, 1, 2)])
    for text in ("# c\n\n3 1\n  # c2\n 0   1   2 \n", "3 1\r\n2 0 1\r\n", "\t3 1\n0\t1 2"):
        assert parse_hg(text) == want


def test_hg_semantic_errors_use_validation():
    with pytest.raises(LinearityError):
        parse_hg("4 2\n0 1 2\n0 1 3\n")
    with pytest.raises(VertexOutOfRangeError):
        parse_hg("3 1\n0 1 5\n")
