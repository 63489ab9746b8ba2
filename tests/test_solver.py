import hashlib
import itertools
import random

import pytest

from berge import (
    BergeCycle,
    BergePath,
    InstanceTooLargeError,
    all_longest_berge_cycles,
    has_berge_path,
    is_valid_berge_cycle,
    is_valid_berge_path,
    longest_berge_cycle,
    longest_berge_path,
    oracle_longest_cycle,
    oracle_longest_path,
    restrict,
    validate,
)
from berge.enumeration import CampaignParams, enumerate_hypergraphs, random_linear
from berge.solver import _cycle_core


def test_path_validity_basics(one_triple):
    assert is_valid_berge_path(one_triple, BergePath(vertices=(0,), hyperedges=()))
    assert is_valid_berge_path(one_triple, BergePath(vertices=(0, 1), hyperedges=((0, 1, 2),)))
    # repeated hyperedge is invalid
    p = BergePath(vertices=(0, 1, 2), hyperedges=((0, 1, 2), (0, 1, 2)))
    assert not is_valid_berge_path(one_triple, p)
    # hyperedge must contain the consecutive pair
    h = validate(4, [(0, 1, 2), (2, 3)])
    bad = BergePath(vertices=(0, 3), hyperedges=((2, 3),))
    assert not is_valid_berge_path(h, bad)


def test_cycle_validity_basics(fano, triangle):
    c = BergeCycle(vertices=(0, 1, 2), hyperedges=((0, 1), (1, 2), (0, 2)))
    assert is_valid_berge_cycle(triangle, c)
    # too short
    c2 = BergeCycle(vertices=(0, 1), hyperedges=((0, 1), (0, 1)))
    assert not is_valid_berge_cycle(triangle, c2)


def test_longest_path_examples(fano, one_triple, two_triples):
    assert longest_berge_path(one_triple).length == 1
    assert longest_berge_path(two_triples).length == 1
    assert longest_berge_path(fano).length == 6


def test_longest_path_empty_cases():
    assert longest_berge_path(validate(0, [])) is None
    p = longest_berge_path(validate(3, []))
    assert p.length == 0 and p.vertices == (0,)


def test_has_berge_path_examples(fano):
    assert has_berge_path(validate(1, []), 0)
    assert not has_berge_path(validate(0, []), 0)
    from berge.constructions import two_edge_clique

    assert not has_berge_path(two_edge_clique(4), 4)
    assert has_berge_path(fano, 6)
    assert not has_berge_path(fano, 7)
    with pytest.raises(ValueError):
        has_berge_path(fano, -1)


def test_longest_cycle_examples(fano, one_triple, triangle):
    assert longest_berge_cycle(one_triple) is None
    assert longest_berge_cycle(triangle).length == 3
    assert longest_berge_cycle(fano).length == 7


def test_witnesses_validate(fano):
    p = longest_berge_path(fano)
    assert is_valid_berge_path(fano, p)
    c = longest_berge_cycle(fano)
    assert is_valid_berge_cycle(fano, c)


def test_all_longest_cycles_triangle(triangle):
    cycles = all_longest_berge_cycles(triangle)
    assert [c.vertices for c in cycles] == [(0, 1, 2)]


def test_all_longest_cycles_contains_first_found():
    h = validate(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    cycles = all_longest_berge_cycles(h)
    assert all(c.length == 3 for c in cycles)
    assert {c.vertices for c in cycles} == {(0, 1, 2), (2, 3, 4)}
    assert longest_berge_cycle(h).vertices in {c.vertices for c in cycles}
    for c in cycles:
        assert is_valid_berge_cycle(h, c)


def test_oracle_examples(fano, one_triple):
    assert oracle_longest_path(one_triple) == 1
    assert oracle_longest_path(validate(4, [(0, 1), (1, 2), (2, 3)])) == 3
    assert oracle_longest_path(fano) == 6
    assert oracle_longest_cycle(fano) == 7
    with pytest.raises(InstanceTooLargeError):
        oracle_longest_path(validate(8, []))


def test_oracle_handles_nonlinear_input():
    # two edges on the same pair: a Berge path of length 2 exists through them
    h = validate(4, [(0, 1), (2, 3)])
    nonlinear = type(h)(n=3, edges=((0, 1), (0, 1, 2)))
    assert oracle_longest_path(nonlinear) == 2


def test_solver_matches_oracle_exhaustive_small():
    # every linear {2,3}-uniform hypergraph on up to 4 vertices
    for n in (1, 2, 3, 4):
        mism = []

        def cmp(h):
            a = longest_berge_path(h).length
            b = oracle_longest_path(h)
            if a != b:
                mism.append((h, a, b))

        enumerate_hypergraphs(CampaignParams(n=n, uniformity="23"), cmp)
        assert not mism


def test_cycle_solver_matches_oracle_random():
    for i in range(150):
        h = random_linear(6, random.Random(f"cyc:{i}"))
        got = longest_berge_cycle(h)
        want = oracle_longest_cycle(h)
        assert (got.length if got else None) == want, h


def test_monotonicity_under_edge_addition():
    rng = random.Random(11)
    for i in range(60):
        h = random_linear(7, random.Random(f"mono:{i}"))
        base = longest_berge_path(h).length
        # add one random compatible edge if any
        import itertools

        covered = set()
        for e in h.edges:
            covered.update(itertools.combinations(e, 2))
        cands = [c for c in itertools.combinations(range(7), 3)
                 if not any(p in covered for p in itertools.combinations(c, 2))]
        if not cands:
            continue
        bigger = validate(7, list(h.edges) + [rng.choice(cands)])
        assert longest_berge_path(bigger).length >= base


def test_subgraph_monotonicity():
    for i in range(60):
        h = random_linear(7, random.Random(f"sub:{i}"))
        keep = [v for v in range(7) if v != i % 7]
        sub, _ = restrict(h, keep)
        assert longest_berge_path(sub).length <= longest_berge_path(h).length


def test_cycle_path_relation():
    # a cycle of length l unrolls into a path of length l-1
    for i in range(150):
        h = random_linear(7, random.Random(f"unroll:{i}"))
        c = longest_berge_cycle(h)
        if c is not None:
            assert has_berge_path(h, c.length - 1)


def test_deterministic_witnesses(fano):
    a = longest_berge_path(fano)
    b = longest_berge_path(fano)
    assert a == b
    assert longest_berge_cycle(fano) == longest_berge_cycle(fano)


def _all_max_paths(h):
    """Independent enumeration of every maximum-length Berge path."""
    import itertools

    cover = {}
    for e in h.edges:
        for p in itertools.combinations(e, 2):
            cover[p] = e
    best = [0]
    found = []

    def grow(seq, prev_edge):
        if len(seq) - 1 > best[0]:
            best[0] = len(seq) - 1
            found.clear()
        if len(seq) - 1 == best[0]:
            found.append(tuple(seq))
        for w in range(h.n):
            if w in seq:
                continue
            p = (seq[-1], w) if seq[-1] < w else (w, seq[-1])
            e = cover.get(p)
            if e is None or e == prev_edge:
                continue
            seq.append(w)
            grow(seq, e)
            seq.pop()

    for s in range(h.n):
        grow([s], None)
    return best[0], sorted(found)


def _check_path_contract(h):
    """The witness is the lex-least maximum vertex sequence, and has-path
    answers k <= L for every k up to n + 1."""
    if h.n == 0:
        assert longest_berge_path(h) is None
        return
    length, all_max = _all_max_paths(h)
    got = longest_berge_path(h)
    assert got.length == length and got.vertices == all_max[0], h
    assert is_valid_berge_path(h, got), h
    for k in range(h.n + 2):
        assert has_berge_path(h, k) == (k <= length), (h, k)


def test_witness_is_lexicographic_minimum():
    # the returned maximum path is the lex-least maximum vertex sequence
    for i in range(80):
        _check_path_contract(random_linear(5, random.Random(f"lex:{i}")))


def test_path_contract_exhaustive_small():
    # every labeled linear {2,3}-uniform hypergraph on at most 5 vertices
    for n in range(1, 6):
        enumerate_hypergraphs(CampaignParams(n=n, uniformity="23"),
                              _check_path_contract)


@pytest.mark.parametrize("uniformity", ["23", "3"])
def test_path_contract_random(uniformity):
    for n in (6, 7, 8):
        for i in range(40):
            _check_path_contract(
                random_linear(n, random.Random(f"path:{n}:{i}"), uniformity))


def _sparse_linear(n, rng):
    """Random linear {2,3}-uniform hypergraph with 0.4n to 0.8n edges."""
    target = rng.randint(2 * n // 5, 4 * n // 5)
    covered, edges = set(), []
    while len(edges) < target:
        e = tuple(sorted(rng.sample(range(n), rng.choice((2, 3)))))
        pairs = set(itertools.combinations(e, 2))
        if not pairs & covered:
            covered |= pairs
            edges.append(e)
    return validate(n, edges)


def test_sparse_path_answers_pinned():
    # witnesses and has-path answers around L on sparse instances with
    # n = 16..30, pinned from the unpruned path search
    rows = []
    for i in range(40):
        h = _sparse_linear(16 + i % 15, random.Random(f"sparse:{i}"))
        p = longest_berge_path(h)
        ks = range(p.length - 1, p.length + 3)
        rows.append((p.vertices, p.hyperedges, [has_berge_path(h, k) for k in ks]))
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "1d94fdfd04abb83694fccdcee17d26e657892c8ecd8a7516aa07f666d787d4ff"


def _all_cycles(h):
    """Independent enumeration of every Berge cycle, minimum vertex first.

    Walks injective vertex sequences, tracks the used hyperedges as a set
    (no linearity shortcut) and closes a cycle whenever the closing pair is
    covered by an unused hyperedge.  Returns (vertices, hyperedges) pairs.
    """
    import itertools

    cover = {}
    for e in h.edges:
        for p in itertools.combinations(e, 2):
            cover[p] = e
    found = []

    def edge(a, b):
        return cover.get((a, b) if a < b else (b, a))

    def grow(seq, used):
        if len(seq) >= 3:
            e = edge(seq[-1], seq[0])
            if e is not None and e not in used:
                found.append((tuple(seq), tuple(used) + (e,)))
        for w in range(seq[0] + 1, h.n):
            e = edge(seq[-1], w)
            if w in seq or e is None or e in used:
                continue
            seq.append(w)
            used.append(e)
            grow(seq, used)
            seq.pop()
            used.pop()

    for s in range(h.n):
        grow([s], [])
    return found


def _peeled_core(h):
    """Vertices left after repeatedly deleting every vertex of degree <= 1,
    where an edge counts only while it keeps two undeleted vertices."""
    alive = set(range(h.n))
    while True:
        live = [e for e in h.edges if sum(v in alive for v in e) >= 2]
        low = {v for v in alive if sum(v in e for e in live) <= 1}
        if not low:
            return alive, len(live)
        alive -= low


def _check_cycle_contract(h):
    cycles = _all_cycles(h)
    got = longest_berge_cycle(h)
    every = all_longest_berge_cycles(h)
    if not cycles:
        assert got is None and every == []
        return
    top = max(len(vs) for vs, _ in cycles)
    longest = sorted(c for c in cycles if len(c[0]) == top)
    assert got is not None and (got.vertices, got.hyperedges) == longest[0], h
    assert got.vertices[0] == min(got.vertices)
    want = sorted(c for c in longest if c[0][1] < c[0][-1])
    assert [(c.vertices, c.hyperedges) for c in every] == want, h
    core, core_m = _peeled_core(h)
    mask = sum(1 << v for v in core)
    assert _cycle_core(h) == (mask, core_m), h
    assert all(set(vs) <= core for vs, _ in longest), h


def test_cycle_witness_contract_exhaustive_small():
    # every labeled linear {2,3}-uniform hypergraph on at most 5 vertices
    for n in range(1, 6):
        enumerate_hypergraphs(CampaignParams(n=n, uniformity="23"),
                              _check_cycle_contract)


@pytest.mark.parametrize("uniformity", ["23", "3"])
def test_cycle_witness_contract_random(uniformity):
    for n in (6, 7, 8):
        for i in range(40):
            _check_cycle_contract(
                random_linear(n, random.Random(f"contract:{n}:{i}"), uniformity))
