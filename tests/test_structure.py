import itertools
import random
from collections import Counter

import pytest

from berge import (
    BadSharingPatternError,
    BergeCycle,
    TripleTouchesCycleError,
    VertexOnCycleError,
    VertexOutOfRangeError,
    longest_berge_cycle,
    oracle_longest_cycle,
    structure,
    validate,
)
from berge.constructions import extremal_disjoint_sts
from berge.enumeration import enumerate_hypergraphs, random_linear
from berge.structure import (
    CycleContext,
    check_claim_plus,
    check_claim_plus_plus,
    check_claim_triple,
    check_laws,
    claim_plus_hit,
    off_cycle_triples,
    peripheral_masks,
    sharing_pairs,
    shift,
    shift_mask,
)
from test_solver import _all_cycles


def _ctx_of(h):
    return CycleContext.from_cycle(h, longest_berge_cycle(h))


def test_shift_basics():
    assert shift(set(), 3, 5) == frozenset()
    assert shift({0}, 1, 5) == frozenset({1})
    assert shift({0}, -1, 5) == frozenset({4})
    assert shift({2, 3}, 0, 6) == frozenset({2, 3})
    with pytest.raises(ValueError):
        shift({0}, 1, 0)
    with pytest.raises(ValueError):
        shift({3}, 1, 3)


def test_shift_is_bijective():
    rng = random.Random(5)
    for _ in range(200):
        ell = rng.randint(1, 10)
        s = {p for p in range(ell) if rng.random() < 0.5}
        o = rng.randint(-7, 7)
        shifted = shift(s, o, ell)
        assert len(shifted) == len(s)
        assert shift(shifted, -o, ell) == frozenset(s)


def test_shift_mask_agrees_with_shift():
    rng = random.Random(9)
    for _ in range(200):
        ell = rng.randint(1, 12)
        s = {p for p in range(ell) if rng.random() < 0.4}
        o = rng.randint(-5, 5)
        mask = 0
        for p in s:
            mask |= 1 << p
        want = shift(s, o, ell)
        got = shift_mask(mask, o, ell)
        assert {p for p in range(ell) if (got >> p) & 1} == want


def test_peripheral_sets_examples():
    # defining triple with off-cycle third vertex: L = {i} with
    # h_i = {v_i, v_{i+1}, 3}, S empty
    h = validate(4, [(0, 1, 3), (1, 2), (0, 2)])
    ctx = _ctx_of(h)
    assert ctx.length == 3
    s, l = peripheral_masks(ctx, 3)
    assert s == 0 and l.bit_count() == 1
    i = l.bit_length() - 1
    vs = ctx.cycle.vertices
    assert set(ctx.cycle.hyperedges[i]) == {vs[i], vs[(i + 1) % 3], 3}

    # pendant 2-edge into the cycle: S = {position of 0}, L empty
    h2 = validate(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    ctx2 = _ctx_of(h2)
    assert ctx2.length == 3
    assert peripheral_masks(ctx2, 3) == (1 << ctx2.position[0], 0)

    # untouched vertex: both empty
    h3 = validate(4, [(0, 1), (1, 2), (0, 2)])
    assert peripheral_masks(_ctx_of(h3), 3) == (0, 0)


def test_peripheral_sets_rejects_cycle_vertex(triangle):
    ctx = _ctx_of(triangle)
    with pytest.raises(VertexOnCycleError):
        peripheral_masks(ctx, 0)
    with pytest.raises(VertexOutOfRangeError):
        peripheral_masks(ctx, triangle.n)
    with pytest.raises(ValueError):
        CycleContext.from_cycle(
            triangle, BergeCycle(vertices=(0, 1, 2), hyperedges=((0, 1), (0, 2), (1, 2))))


def test_claim_plus_holds_on_longest_cycles():
    for i in range(200):
        h = random_linear(7, random.Random(f"cp:{i}"))
        c = longest_berge_cycle(h)
        if c is None:
            continue
        ctx = CycleContext.from_cycle(h, c)
        for u in [v for v in range(h.n) if v not in ctx.position]:
            assert check_claim_plus(ctx, u) is None
            s, _ = peripheral_masks(ctx, u)
            assert s.bit_count() <= ctx.length // 2


def test_claim_plus_implies_s_size_bound():
    # |S| > floor(l/2) puts two cyclically adjacent positions p, p+1 in S,
    # so p lies in (S∪L) ∩ S⁻: claim-plus already bounds |S|
    for ell in range(3, 13):
        for s_mask in range(1 << ell):
            if s_mask.bit_count() > ell // 2:
                for l_mask in (0, (1 << ell) - 1):
                    assert claim_plus_hit(s_mask, l_mask, ell) is not None, (ell, s_mask)


def test_claim_plus_negative_control():
    # feeding a non-maximum cycle must surface a violation
    h = validate(4, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3)])
    assert longest_berge_cycle(h).length == 4
    fake = CycleContext.from_cycle(
        h, BergeCycle(vertices=(0, 1, 2), hyperedges=((0, 1), (1, 2), (0, 2))))
    v = check_claim_plus(fake, 3)
    assert v is not None and v.kind == "claim-plus"
    assert v.us == (3,)
    assert v.witnesses == ((0, 3), (1, 3))


def _assert_s_l_as_stated(h, ctx) -> int:
    # S(u): the positions of the cycle vertices sharing a non-defining edge
    # with u; L(u): the positions i with h_i = {v_i, v_{i+1}, u}.  Returns
    # how many off-cycle vertices have L(u) nonempty
    vs, es = ctx.cycle.vertices, ctx.cycle.hyperedges
    ell = len(vs)
    with_l = 0
    for u in set(range(h.n)) - set(vs):
        s = sum(1 << p for p, v in enumerate(vs)
                if any(u in e and v in e for e in h.edges if e not in es))
        l = sum(1 << i for i in range(ell)
                if set(es[i]) == {vs[i], vs[(i + 1) % ell], u})
        assert peripheral_masks(ctx, u) == (s, l), (h.edges, vs, u)
        with_l += l != 0
    return with_l


def _s_l_on_every_cycle(h) -> int:
    # _all_cycles lists each cycle in both orientations, maximum or not
    return sum(_assert_s_l_as_stated(h, CycleContext.from_cycle(h, BergeCycle(vs, es)))
               for vs, es in _all_cycles(h))


def test_s_l_as_stated_on_every_cycle_up_to_5_vertices():
    with_l = []
    for n in range(3, 6):
        enumerate_hypergraphs(n, "23", lambda h: with_l.append(_s_l_on_every_cycle(h)))
    assert sum(with_l) > 1000


def test_s_l_as_stated_on_every_cycle_of_random_instances():
    with_l = 0
    for n in range(7, 10):
        for i in range(8):
            with_l += _s_l_on_every_cycle(random_linear(n, random.Random(f"sl:{n}:{i}")))
    assert with_l > 1000


def test_claim_plus_witnesses_are_the_edges_through_the_hit_pairs():
    # on every Berge cycle, longest or not, a claim-plus hit at p is
    # witnessed by the non-defining edges through {u, v_p} and {u, v_{p+1}};
    # S and L there are the stated ones
    hits = 0
    for i in range(300):
        h = random_linear(6, random.Random(f"wit:{i}"))
        for vs, es in _all_cycles(h):
            ctx = CycleContext.from_cycle(h, BergeCycle(vertices=vs, hyperedges=es))
            _assert_s_l_as_stated(h, ctx)
            for u in set(range(h.n)) - set(vs):
                v = check_claim_plus(ctx, u)
                if v is None:
                    continue
                hits += 1
                want = []
                for w in (vs[v.position], vs[(v.position + 1) % len(vs)]):
                    (e,) = [e for e in h.edges if u in e and w in e and e not in es]
                    want.append(e)
                assert v.witnesses == tuple(want), (h.edges, vs, u)
    assert hits > 1000


def test_claim_plus_plus_negative_control():
    h = validate(8, [(0, 1), (1, 2), (0, 2), (3, 4, 5), (0, 3), (1, 4)])
    assert longest_berge_cycle(h).length > 3
    fake = CycleContext.from_cycle(
        h, BergeCycle(vertices=(0, 1, 2), hyperedges=((0, 1), (1, 2), (0, 2))))
    v = check_claim_plus_plus(fake, (3, 4, 5))
    assert v is not None and v.kind == "claim-plus-plus"


def test_claim_triple_negative_control():
    # two sharing triples, both tapping adjacent cycle vertices
    h = validate(10, [(0, 1), (1, 2), (0, 2),
                      (3, 4, 5), (5, 6, 7), (0, 3), (1, 6)])
    fake = CycleContext.from_cycle(
        h, BergeCycle(vertices=(0, 1, 2), hyperedges=((0, 1), (1, 2), (0, 2))))
    v = check_claim_triple(fake, (3, 4, 5), (5, 6, 7))
    assert v is not None and v.kind == "claim-triple"
    # and the shared-vertex precondition is enforced
    with pytest.raises(BadSharingPatternError):
        check_claim_triple(fake, (3, 4, 5), (3, 4, 5))


def test_claim_checkers_hold_on_true_longest_cycles_with_triples():
    hits = 0
    for i in range(400):
        h = random_linear(10, random.Random(f"ct:{i}"))
        c = longest_berge_cycle(h)
        if c is None:
            continue
        ctx = CycleContext.from_cycle(h, c)
        triples = off_cycle_triples(ctx)
        for t in triples:
            hits += 1
            assert check_claim_plus_plus(ctx, t) is None
        for e1, e2 in sharing_pairs(triples):
            assert check_claim_triple(ctx, e1, e2) is None
    assert hits > 0   # the sample actually exercised the checker


def test_claim_checker_preconditions(fano):
    # Hamiltonian cycle: every triple touches it
    ctx = _ctx_of(fano)
    with pytest.raises(TripleTouchesCycleError):
        check_claim_plus_plus(ctx, (0, 1, 2))
    with pytest.raises(ValueError):
        check_claim_plus_plus(ctx, (0, 1, 3))  # not an edge
    h = validate(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    with pytest.raises(BadSharingPatternError):
        check_claim_plus_plus(_ctx_of(h), (3, 4))  # a 2-edge


def test_vacuous_cases(fano, two_triples):
    # Hamiltonian cycle leaves no off-cycle vertices
    ctx = _ctx_of(fano)
    assert ctx.length == fano.n
    assert off_cycle_triples(ctx) == []
    # cycle plus a fully detached triple: everything empty, checker passes
    h = validate(6, [(0, 1), (1, 2), (0, 2), (3, 4, 5)])
    ctx2 = _ctx_of(h)
    assert check_claim_plus_plus(ctx2, (3, 4, 5)) is None
    # a cycle through every touched vertex, plus isolated vertices: the
    # isolated ones are counted and nothing else is left to check, as the
    # full path finds with one edge off the cycle
    h3 = validate(10, fano.edges)
    ctx3 = _ctx_of(h3)
    assert ctx3.length == 7
    assert check_laws(ctx3) == ([], 3, 0, 0)
    assert "masks" not in vars(ctx3)   # the S/L table was never built
    h4 = validate(10, fano.edges + ((7, 8),))
    assert check_laws(CycleContext.from_cycle(h4, ctx3.cycle)) == ([], 3, 0, 0)


def test_check_laws_on_non_maximum_cycle():
    # a non-maximum cycle makes check_laws report what the checkers report
    h = validate(4, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3)])
    short = CycleContext.from_cycle(
        h, BergeCycle(vertices=(0, 1, 2), hyperedges=((0, 1), (1, 2), (0, 2))))
    found, vertices, triples, pairs = check_laws(short)
    assert found == [check_claim_plus(short, 3)] and found[0] is not None
    assert (vertices, triples, pairs) == (1, 0, 0)


@pytest.mark.parametrize("copies", [3, 300])
def test_check_laws_runs_every_check_through_its_checker(monkeypatch, copies):
    # disjoint Fano planes around a 7-cycle: each off-cycle vertex, triple
    # and sharing pair (two lines of a plane meet once) is one call of its
    # public checker, the calls the benchmark traces as structure.checks;
    # 300 copies finish in well under a second unless the checks are
    # quadratic in the edge count
    calls = Counter()
    for name in ("check_claim_plus", "check_claim_plus_plus", "check_claim_triple"):
        def counted(*args, _check=getattr(structure, name), _name=name):
            calls[_name] += 1
            return _check(*args)
        monkeypatch.setattr(structure, name, counted)
    h = extremal_disjoint_sts(7, copies)
    ctx = _ctx_of(h)
    off = 7 * (copies - 1)
    assert ctx.length == 7
    assert check_laws(ctx) == ([], off, off, 6 * off)
    assert calls == {"check_claim_plus": off, "check_claim_plus_plus": off,
                     "check_claim_triple": 6 * off}


def test_sharing_pairs_is_the_permutations_definition():
    # on seeded lists of 3-sets, linear or not, the shared-vertex index
    # lists the same pairs in the same order as the all-pairs definition
    rng = random.Random(24)
    two_shared = 0
    for _ in range(300):
        pool = list(itertools.combinations(range(rng.randint(3, 9)), 3))
        triples = rng.sample(pool, rng.randint(0, min(len(pool), 12)))
        pairs = list(itertools.permutations(triples, 2))
        assert sharing_pairs(triples) == [
            (e1, e2) for e1, e2 in pairs if len(set(e1) & set(e2)) == 1]
        two_shared += any(len(set(e1) & set(e2)) == 2 for e1, e2 in pairs)
    assert two_shared > 100


# circumference 3: the triangle 0-1-2; the off-cycle triples {3,4,5} and
# {3,6,7} share vertex 3, and {0,4,6} joins 4 and 6 to cycle vertex 0
L3_INSTANCE = validate(8, [(0, 1), (1, 2), (0, 2), (3, 4, 5), (3, 6, 7), (0, 4, 6)])


def test_length3_instance_circumference():
    c = longest_berge_cycle(L3_INSTANCE)
    assert c.length == 3 == oracle_longest_cycle(L3_INSTANCE, cap=8)


@pytest.mark.xfail(strict=True, reason=(
    "known issue: at cycle length 3, shift(S,-3) is S itself, and the "
    "claim-triple check counts the memberships S(4) and S(6) of cycle "
    "vertex 0, which come from the single edge {0,4,6}, as a violation"))
def test_claim_triple_no_false_positive_at_length_3():
    found, _, _, _ = check_laws(_ctx_of(L3_INSTANCE))
    assert found == []
