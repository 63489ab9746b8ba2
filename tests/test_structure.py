import random

import pytest

from berge import (
    BadSharingPatternError,
    BergeCycle,
    TripleTouchesCycleError,
    VertexOnCycleError,
    VertexOutOfRangeError,
    longest_berge_cycle,
    oracle_longest_cycle,
    validate,
)
from berge.enumeration import random_linear
from berge.structure import (
    CycleContext,
    check_claim_plus,
    check_claim_plus_plus,
    check_claim_triple,
    check_laws,
    claim_plus_hit,
    off_cycle_triples,
    peripheral_sets,
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
    # defining triple with off-cycle third vertex: L = {v_0}, R = {v_1}, S empty
    h = validate(4, [(0, 1, 3), (1, 2), (0, 2)])
    ctx = _ctx_of(h)
    assert ctx.length == 3
    ps = peripheral_sets(h, ctx, 3)
    pos = ctx.position
    assert len(ps.l) == 1 and len(ps.r) == 1 and not ps.s
    (lv,), (rv,) = tuple(ps.l), tuple(ps.r)
    assert (pos[rv] - pos[lv]) % 3 == 1   # R is L shifted forward

    # pendant 2-edge into the cycle: S = {v}, L = R = empty
    h2 = validate(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    ctx2 = _ctx_of(h2)
    assert ctx2.length == 3
    ps2 = peripheral_sets(h2, ctx2, 3)
    assert ps2.s == frozenset({0}) and not ps2.l and not ps2.r

    # untouched vertex: all empty
    h3 = validate(4, [(0, 1), (1, 2), (0, 2)])
    ps3 = peripheral_sets(h3, _ctx_of(h3), 3)
    assert not ps3.s and not ps3.l and not ps3.r


def test_peripheral_sets_rejects_cycle_vertex(triangle):
    ctx = _ctx_of(triangle)
    with pytest.raises(VertexOnCycleError):
        peripheral_sets(triangle, ctx, 0)
    with pytest.raises(VertexOutOfRangeError):
        peripheral_sets(triangle, ctx, triangle.n)
    with pytest.raises(ValueError):
        CycleContext.from_cycle(
            triangle, BergeCycle(vertices=(0, 1, 2), hyperedges=((0, 1), (0, 2), (1, 2))))


def test_l_shift_is_r_on_random_instances():
    for i in range(120):
        h = random_linear(8, random.Random(f"lr:{i}"))
        c = longest_berge_cycle(h)
        if c is None:
            continue
        ctx = CycleContext.from_cycle(h, c)
        pos = ctx.position
        ell = ctx.length
        for u in [v for v in range(h.n) if v not in ctx.position]:
            ps = peripheral_sets(h, ctx, u)
            assert len(ps.l) == len(ps.r)
            lpos = shift({pos[v] for v in ps.l}, 1, ell)
            assert {pos[v] for v in ps.r} == lpos


def test_claim_plus_holds_on_longest_cycles():
    for i in range(200):
        h = random_linear(7, random.Random(f"cp:{i}"))
        c = longest_berge_cycle(h)
        if c is None:
            continue
        ctx = CycleContext.from_cycle(h, c)
        for u in [v for v in range(h.n) if v not in ctx.position]:
            assert check_claim_plus(h, ctx, u) is None
            ps = peripheral_sets(h, ctx, u)
            assert len(ps.s) <= ctx.length // 2


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
    v = check_claim_plus(h, fake, 3)
    assert v is not None and v.kind == "claim-plus"
    assert v.us == (3,)
    assert v.witnesses == ((0, 3), (1, 3))


def test_claim_plus_witnesses_are_the_edges_through_the_hit_pairs():
    # on every Berge cycle, longest or not, a claim-plus hit at p is
    # witnessed by the non-defining edges through {u, v_p} and {u, v_{p+1}}
    hits = 0
    for i in range(300):
        h = random_linear(6, random.Random(f"wit:{i}"))
        for vs, es in _all_cycles(h):
            ctx = CycleContext.from_cycle(h, BergeCycle(vertices=vs, hyperedges=es))
            for u in set(range(h.n)) - set(vs):
                v = check_claim_plus(h, ctx, u)
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
    v = check_claim_plus_plus(h, fake, (3, 4, 5))
    assert v is not None and v.kind == "claim-plus-plus"


def test_claim_triple_negative_control():
    # two sharing triples, both tapping adjacent cycle vertices
    h = validate(10, [(0, 1), (1, 2), (0, 2),
                      (3, 4, 5), (5, 6, 7), (0, 3), (1, 6)])
    fake = CycleContext.from_cycle(
        h, BergeCycle(vertices=(0, 1, 2), hyperedges=((0, 1), (1, 2), (0, 2))))
    v = check_claim_triple(h, fake, (3, 4, 5), (5, 6, 7))
    assert v is not None and v.kind == "claim-triple"
    # and the shared-vertex precondition is enforced
    with pytest.raises(BadSharingPatternError):
        check_claim_triple(h, fake, (3, 4, 5), (3, 4, 5))


def test_claim_checkers_hold_on_true_longest_cycles_with_triples():
    hits = 0
    for i in range(400):
        h = random_linear(10, random.Random(f"ct:{i}"))
        c = longest_berge_cycle(h)
        if c is None:
            continue
        ctx = CycleContext.from_cycle(h, c)
        triples = off_cycle_triples(h, ctx)
        for t in triples:
            hits += 1
            assert check_claim_plus_plus(h, ctx, t) is None
        for e1, e2 in sharing_pairs(triples):
            assert check_claim_triple(h, ctx, e1, e2) is None
    assert hits > 0   # the sample actually exercised the checker


def test_claim_checker_preconditions(fano):
    # Hamiltonian cycle: every triple touches it
    ctx = _ctx_of(fano)
    with pytest.raises(TripleTouchesCycleError):
        check_claim_plus_plus(fano, ctx, (0, 1, 2))
    with pytest.raises(ValueError):
        check_claim_plus_plus(fano, ctx, (0, 1, 3))  # not an edge
    h = validate(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    with pytest.raises(BadSharingPatternError):
        check_claim_plus_plus(h, _ctx_of(h), (3, 4))  # a 2-edge


def test_vacuous_cases(fano, two_triples):
    # Hamiltonian cycle leaves no off-cycle vertices
    ctx = _ctx_of(fano)
    assert ctx.length == fano.n
    assert off_cycle_triples(fano, ctx) == []
    # cycle plus a fully detached triple: everything empty, checker passes
    h = validate(6, [(0, 1), (1, 2), (0, 2), (3, 4, 5)])
    ctx2 = _ctx_of(h)
    assert check_claim_plus_plus(h, ctx2, (3, 4, 5)) is None


def test_check_laws_on_non_maximum_cycle():
    # a non-maximum cycle makes check_laws report what the checkers report
    h = validate(4, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3)])
    short = CycleContext.from_cycle(
        h, BergeCycle(vertices=(0, 1, 2), hyperedges=((0, 1), (1, 2), (0, 2))))
    found, vertices, triples, pairs = check_laws(h, short)
    assert found == [check_claim_plus(h, short, 3)] and found[0] is not None
    assert (vertices, triples, pairs) == (1, 0, 0)


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
    found, _, _, _ = check_laws(L3_INSTANCE, _ctx_of(L3_INSTANCE))
    assert found == []
