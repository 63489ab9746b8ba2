import hashlib
import itertools
import os
import random
import types

import pytest

from berge import CapExceededError, enumeration, format_hg, shadow, structure, validate
from berge.constructions import matching_k2, star_k3, sts_bose
from berge.enumeration import (
    _BoundCampaign,
    _ClaimsAcc,
    _ClaimsCampaign,
    _verify_bound,
    canonical_form,
    enumerate_hypergraphs,
    random_linear,
    verify_claims,
    verify_remark,
    verify_theorem_shadow,
    verify_theorem_uniform,
)
from berge.solver import (
    BergeCycle,
    _cycle_kernel,
    has_berge_path,
    longest_berge_cycle,
    oracle_longest_cycle,
)


def _brute_force_count(n, mixed):
    """Independent oracle: filter all subsets of candidate edges."""
    cands = list(itertools.combinations(range(n), 3))
    if mixed:
        cands += list(itertools.combinations(range(n), 2))
    count = 0
    for r in range(len(cands) + 1):
        for subset in itertools.combinations(cands, r):
            pairs = set()
            ok = True
            for e in subset:
                for p in itertools.combinations(e, 2):
                    if p in pairs:
                        ok = False
                        break
                    pairs.add(p)
                if not ok:
                    break
            if ok:
                count += 1
    return count


@pytest.mark.parametrize("n,mixed,expected", [
    (3, False, 2),
    (4, False, 5),     # frozen regression pin
    (3, True, 9),      # frozen regression pin
])
def test_enumeration_counts_pinned(n, mixed, expected):
    assert enumerate_hypergraphs(n, "23" if mixed else "3") == expected


@pytest.mark.parametrize("n,mixed", [(4, False), (5, False), (4, True)])
def test_enumeration_counts_against_brute_force(n, mixed):
    assert enumerate_hypergraphs(n, "23" if mixed else "3") == _brute_force_count(n, mixed)


def test_enumeration_is_lexicographically_increasing():
    seen = []
    enumerate_hypergraphs(5, "23", lambda h: seen.append(h.edges))
    assert all(a < b for a, b in zip(seen, seen[1:]))


def test_enumeration_visitor_prune():
    # pruning at every nonempty instance leaves the empty one plus one level
    visited = []

    def stop(h):
        visited.append(h)
        return h.m == 0

    enumerate_hypergraphs(4, "3", stop)
    assert len(visited) == 1 + 4  # empty + each single triple


def test_enumeration_visitor_prune_skips_later_extensions_only():
    # candidates on 3 vertices, in order: 01, 012, 02, 12.  Pruning at {02}
    # skips {02, 12}, its one extension by a later candidate; {01, 02} and
    # {01, 02, 12} contain it too but extend {01}, so they still come
    seen = []

    def visit(h):
        seen.append(h.edges)
        return h.edges != ((0, 2),)

    assert enumerate_hypergraphs(3, "23", visit) == 8
    assert seen == [(), ((0, 1),), ((0, 1), (0, 2)), ((0, 1), (0, 2), (1, 2)),
                    ((0, 1), (1, 2)), ((0, 1, 2),), ((0, 2),), ((1, 2),)]


def test_enumeration_cap():
    with pytest.raises(CapExceededError):
        enumerate_hypergraphs(9, "23")


def test_enumeration_rejects_bad_scope():
    with pytest.raises(ValueError):
        enumerate_hypergraphs(0)
    with pytest.raises(ValueError):
        enumerate_hypergraphs(4, "2")


def test_enumeration_cap_env_override(monkeypatch):
    monkeypatch.setenv("HX_CAP_N", "3")
    with pytest.raises(CapExceededError):
        enumerate_hypergraphs(4, "3")
    monkeypatch.setenv("HX_CAP_N", "4")
    assert enumerate_hypergraphs(4, "3") == 5


def test_enumeration_isomorphism_classes():
    # n=3 mixed: 9 labeled instances in 5 classes (empty, one pair,
    # two-pair path, triangle, triple)
    labeled = []
    enumerate_hypergraphs(3, "23", labeled.append)
    assert len(labeled) == 9
    assert len({canonical_form(h) for h in labeled}) == 5


def test_random_instances_are_valid():
    for i in range(100):
        h = random_linear(9, random.Random(f"valid:{i}"))
        assert validate(h.n, h.edges) == h


def test_random_linear_stream_pinned():
    # the seeded instance stream of `verify claims --samples` (seed 1729)
    stream = [(h.n, h.edges)
              for n in (5, 9, 12) for u in ("23", "3") for i in range(50)
              for h in [random_linear(n, random.Random(f"1729:{i}"), u)]]
    digest = hashlib.sha256(repr(stream).encode()).hexdigest()
    assert digest == "79c650f2a2905e5da2eeedfe93e50c8938dd9734dbdcebcf86778702355374f4"


def test_canonical_form_invariance():
    rng = random.Random(42)
    fixtures = [
        validate(7, [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6),
                     (2, 3, 6), (2, 4, 5)]),
        star_k3(7),
        matching_k2(6),
        random_linear(6, random.Random("cf")),
    ]
    for h in fixtures:
        want = canonical_form(h)
        for _ in range(100):
            perm = list(range(h.n))
            rng.shuffle(perm)
            relabeled = validate(h.n, [tuple(perm[v] for v in e) for e in h.edges])
            assert canonical_form(relabeled) == want


def test_canonical_form_separates():
    assert canonical_form(validate(3, [(0, 1, 2)])) != canonical_form(validate(3, [(0, 1)]))
    h = validate(6, [(0, 1, 2), (3, 4, 5)])
    assert canonical_form(h) == canonical_form(h)
    # same counts, different structure: star vs matching shadows differ
    a = validate(5, [(0, 1, 2), (0, 3, 4)])
    b = validate(6, [(0, 1, 2), (3, 4, 5)])
    assert canonical_form(a) != canonical_form(b)
    # n = 9 is answered: edgeless, STS(9), and STS(9) less one triple
    forms = {canonical_form(validate(9, [])), canonical_form(sts_bose(9)),
             canonical_form(validate(9, sts_bose(9).edges[1:]))}
    assert len(forms) == 3
    assert canonical_form(validate(9, [])) != canonical_form(validate(8, []))


def test_theorem_uniform_small():
    r = verify_theorem_uniform(4, 4, jobs=1)
    assert r.holds and r.max_hyperedges == 1
    assert r.bound_value == "2"
    assert r.bp_free_count == 5
    r = verify_theorem_uniform(3, 4, jobs=1)
    assert r.holds and r.max_hyperedges == 1


# the linear Turán numbers of the Berge path: the most triples in a linear
# 3-uniform instance on n vertices with no Berge path of length k
EXACT_EDGE_MAXIMA = {
    (4, 4): 1,
    (5, 4): 2, (5, 5): 2,
    (6, 4): 3, (6, 5): 4, (6, 6): 4,
    (7, 4): 3, (7, 5): 4, (7, 6): 5, (7, 7): 7,
    (8, 4): 3, (8, 5): 4, (8, 6): 5, (8, 7): 7, (8, 8): 8,
}


def test_theorem_uniform_exact_maxima():
    # (7, 7) is the Fano plane, at its bound; (8, 8) falls short of
    # floor(7 * 8 / 6) = 9
    for (n, k), edges in EXACT_EDGE_MAXIMA.items():
        r = verify_theorem_uniform(n, k, jobs=1)
        assert r.holds and r.max_hyperedges == edges, (n, k)
        assert 6 * edges <= (k - 1) * n


def test_theorem_shadow_small():
    r = verify_theorem_shadow(4, 4, jobs=1)
    assert r.holds and r.max_shadow_edges == 6
    assert r.bound_value == "6"
    assert any("0 1\n" in w for w in r.extremal_witnesses)
    r = verify_theorem_shadow(5, 4, jobs=1)
    assert r.holds and r.max_shadow_edges == 7   # below the 15/2 bound
    r = verify_theorem_shadow(3, 4, jobs=1)
    assert r.holds and r.max_shadow_edges == 3


@pytest.mark.parametrize("n,uniformity,k",
                         [(5, "23", k) for k in range(1, 6)]
                         + [(6, "3", k) for k in range(1, 7)]
                         + [(6, "23", 4), (6, "23", 5)]
                         + [(7, "3", k) for k in range(4, 7)]
                         + [(8, "3", 7)])
def test_bound_prune_against_brute_force(n, uniformity, k):
    # the walk's anchored path test against the exact solver on every
    # labeled instance; the path-free family is closed under subsets, so
    # pruning the brute force on a path loses no path-free instance.  The
    # brute force visits every compatible child of every path-free
    # instance, as the campaign counts them, and in lexicographic order
    free = max_edges = max_shadow = 0
    at_max = []   # path-free instances at the running maximum shadow

    def visit(h):
        nonlocal free, max_edges, max_shadow, at_max
        if has_berge_path(h, k):
            return False
        free += 1
        max_edges = max(max_edges, h.m)
        sh = shadow(h).edge_count
        if sh > max_shadow:
            max_shadow, at_max = sh, []
        if sh == max_shadow and len(at_max) < 8:
            at_max.append(format_hg(h))
        return True

    checked = enumerate_hypergraphs(n, uniformity, visit)
    for jobs in (1, 2):
        r = _verify_bound("brute-force", n, k, uniformity, 1, n * n, jobs)
        assert (r.bp_free_count, r.max_shadow_edges) == (free, max_shadow)
        assert r.instances_checked == checked
        assert r.extremal_witnesses == at_max
        if uniformity == "3":
            assert r.max_hyperedges == max_edges


@pytest.mark.parametrize("n,uniformity", [(6, "23"), (7, "23"), (8, "3")])
@pytest.mark.parametrize("k", range(3, 8))
def test_path_hits_contract(n, uniformity, k):
    # at path-free walk nodes grown by seeded random live candidates (one
    # of the first three, so the prefixes reach k - 1 edges), the prune
    # test returns exactly the live candidates whose edge gives the
    # instance a Berge path of length k, and leaves the walk as it was
    camp = _BoundCampaign(n, k, uniformity, 1, n * n)
    w = camp.walk
    cands = w.cands
    rng = random.Random(f"path-hits:{n}:{uniformity}:{k}")
    found = 0
    for _ in range(8):
        w.reset()
        while True:
            live = w.live()
            base = list(w.stack)
            adj = list(w.adj)
            covered = {(u, v): w.cover[u * n + v]
                       for u in range(n) for v in range(n) if adj[u] >> v & 1}
            assert w.degs[-1] == _degrees(w)
            hits = camp.path_hits(live)
            assert (w.adj, w.stack) == (adj, base)
            assert {p: w.cover[p[0] * n + p[1]] for p in covered} == covered
            want = 0
            for j in range(len(cands)):
                if live >> j & 1:
                    h = validate(n, [cands[i] for i in base + [j]])
                    if has_berge_path(h, k):
                        want |= 1 << j
            assert hits == want, base
            found |= hits
            free = [j for j in range(len(cands)) if (live & ~hits) >> j & 1]
            if not free:
                break
            w.add(rng.choice(free[:3]))
    assert bool(found) == (k < n)


def _degrees(w):
    """The vertices in at least one and in at least two edges of the walk's
    instance, recounted from its stack."""
    count = [0] * w.n
    for j in w.stack:
        for v in w.cands[j]:
            count[v] += 1
    return (sum(1 << v for v, c in enumerate(count) if c >= 1),
            sum(1 << v for v, c in enumerate(count) if c >= 2))


@pytest.mark.parametrize("n,uniformity", [(5, "23"), (6, "3")])
def test_walk_degree_state_matches_recount(n, uniformity):
    # at every node of an unpruned walk, and at the root once it is done
    w = enumeration._Walk(n, uniformity)

    def step(acc, j, state):
        assert len(w.degs) == len(w.stack) + 1
        assert w.degs[-1] == _degrees(w), w.stack
        acc.nodes += 1

    acc = types.SimpleNamespace(visited=1, nodes=0)
    w.descend(acc, step, w.live(), None, None, None)
    assert acc.nodes + 1 == acc.visited == enumerate_hypergraphs(n, uniformity)
    assert w.degs == [(0, 0)]


def test_degree_state_after_claims_unit_replay():
    # replay rebuilds the degree state of every claims n = 6 work unit,
    # and the cycle searches along the replay read it at each depth
    camp = _ClaimsCampaign(6)
    w = camp.walk
    _acc, units = camp.run_top(enumeration._SPLIT_DEPTH)
    assert len(units) == 2229

    def advance(j, ctx):
        assert w.degs[-1] == _degrees(w)
        return camp.advance(j, ctx)

    for prefix, _dead in units:
        w.replay(prefix, advance, None)
        assert len(w.degs) == len(prefix) + 1 and w.degs[-1] == _degrees(w)


def _cycle_through_unbounded(w, j, lower):
    # the anchored cycle search as it ran before the degree bound: no
    # longer than n or the edge count
    ub = min(w.n, len(w.stack))
    if ub <= lower:
        return None
    hits = _cycle_kernel(w.adj, w.cover, w.vmask, w.n, w.seeds[j], lower, ub)
    return hits[0] if hits else None


@pytest.mark.parametrize("n", [3, 4, 5])
def test_cycle_through_bound_is_exact(n):
    # on every labeled instance, for each edge just added and each lower
    # length the old bound allowed, the same cycle (vertices and covers)
    w = enumeration._Walk(n, "23")

    def step(acc, j, state):
        for lower in range(2, min(n, len(w.stack))):
            want = _cycle_through_unbounded(w, j, lower)
            assert enumeration._cycle_through(w, j, lower) == want, (w.stack, lower)
            acc.found += want is not None
        acc.tighter += w.degs[-1][1].bit_count() < min(n, len(w.stack))

    acc = types.SimpleNamespace(visited=0, found=0, tighter=0)
    w.descend(acc, step, w.live(), None, None, None)
    assert acc.tighter and acc.found


def test_cycle_through_bound_is_exact_along_claims_walk(monkeypatch):
    # every anchored cycle search of the claims n = 6 walk, with the lower
    # lengths the walk passes it, returns the cycle of the old bound
    camp = _ClaimsCampaign(6)
    w = camp.walk
    through = enumeration._cycle_through
    found = []

    def checked(w, j, lower):
        got = through(w, j, lower)
        assert got == _cycle_through_unbounded(w, j, lower), (w.stack, lower)
        found.append(got is not None)
        return got

    monkeypatch.setattr(enumeration, "_cycle_through", checked)
    w.reset()
    acc = types.SimpleNamespace(visited=1)
    w.descend(acc, lambda acc, j, ctx: camp.advance(j, ctx), w.live(), None, None, None)
    assert len(found) == acc.visited - 1 == 173807
    assert any(found)


@pytest.mark.parametrize("args,count,value,bound,instance", [
    ((5, 4, "3", 6, 6), 15, 2, "1", "5 2\n0 1 2\n0 3 4\n"),
    ((6, 5, "3", 6, 13), 150, 3, "13/6", "6 3\n0 1 2\n0 3 4\n1 3 5\n"),
    ((5, 4, "23", 2, 9), 480, 6, "9/2", "5 2\n0 1 2\n0 3 4\n"),
    ((4, 2, "23", 1, 0), 13, 1, "0", "4 1\n0 1\n"),
])
@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("collect_classes", [False, True])
def test_bound_exceeded_records(args, count, value, bound, instance, jobs,
                                collect_classes):
    # bounds tighter than the true maxima: every path-free instance above
    # them is a violation, reported with its value and the bound rhs/lhs
    r = _verify_bound("tight", *args, jobs, collect_classes=collect_classes)
    assert r.holds is False
    assert len(r.violations) == count
    assert r.violations[0] == {"kind": "bound-exceeded", "value": value,
                               "bound": bound, "instance": instance}


@pytest.mark.parametrize("k,classes", [(4, 2), (5, 3), (6, 6)])
def test_shadow_equality_case_is_3_uniform(k, classes):
    # on n = k vertices every instance is path-free, the maximum shadow is
    # C(k, 2), and it is reached exactly by the linear 3-uniform instances
    # with 2-edges on every uncovered pair
    acc, _units = _BoundCampaign(k, k, "23", 2, (k - 1) * k).run_top(None)
    assert acc.max_shadow == k * (k - 1) // 2
    uniform = []
    assert len(acc.best) == enumerate_hypergraphs(k, "3", uniform.append)
    cands = enumeration._candidates(k, "23")[0]
    tie_forms = {canonical_form(validate(k, [cands[j] for j in s])) for s in acc.best}
    assert len(tie_forms) == len({canonical_form(h) for h in uniform}) == classes


def test_theorem_campaigns_reject_small_k():
    with pytest.raises(ValueError):
        verify_theorem_uniform(5, 3)
    with pytest.raises(ValueError):
        verify_theorem_shadow(5, 2)


def test_remark_k1():
    r = verify_remark(5, 1, jobs=1)
    assert r.holds and r.max_shadow_edges == 0
    assert r.bp_free_count == 1


def test_remark_k2_divisible():
    r = verify_remark(6, 2, jobs=1)
    assert r.holds and r.max_shadow_edges == 6
    assert r.extremal_class_count == 1
    assert r.extremal_matches_family is True


def test_remark_k2_nondivisible():
    r = verify_remark(5, 2, jobs=1)
    assert r.holds and r.max_shadow_edges < 5
    assert r.extremal_matches_family is None


def test_remark_k3_odd():
    r = verify_remark(5, 3, jobs=1)
    assert r.holds and 2 * r.max_shadow_edges == 3 * (5 - 1)
    assert r.extremal_class_count == 1 and r.extremal_matches_family is True


def test_remark_k3_even_bound_only():
    r = verify_remark(6, 3, jobs=1)
    assert r.holds
    assert 2 * r.max_shadow_edges <= 3 * (6 - 1)
    assert r.extremal_matches_family is None


def test_claims_exhaustive_small():
    r = verify_claims(5, jobs=1)
    assert r.holds
    assert r.instances_checked == 2544
    assert r.cyclic_instances + r.acyclic_instances == r.instances_checked
    assert r.checked_vertices > 0
    # the anchored cycle search and the n <= 5 all-cycles re-check share one
    # kernel, so the circumferences are also counted by the brute-force oracle
    assert r.cycle_length_histogram == {"3": 795, "4": 660, "5": 553}
    assert r.acyclic_instances == 536
    hist: dict[str, int] = {}
    acyclic = 0

    def count(h):
        nonlocal acyclic
        ell = oracle_longest_cycle(h)
        if ell is None:
            acyclic += 1
        else:
            hist[str(ell)] = hist.get(str(ell), 0) + 1

    assert enumerate_hypergraphs(5, "23", count) == 2544
    assert (hist, acyclic) == (r.cycle_length_histogram, r.acyclic_instances)


def test_claims_exhaustive_exercises_triples():
    r = verify_claims(6, jobs=2)
    assert r.holds
    assert r.instances_checked == 173808
    assert r.checked_triples > 0


def _sharing_pair_instances():
    """Seeded instances with two off-cycle triples sharing a vertex: an
    (n-5)-cycle of 2-edges, the triples {l, l+1, l+2} and {l, l+3, l+4},
    and up to four random linear edges, as sorted candidate indices."""
    for n in (8, 9, 10):
        ell = n - 5
        camp = _ClaimsCampaign(n)
        cands, bits = enumeration._candidates(n, "23")
        base = [tuple(sorted((i, (i + 1) % ell))) for i in range(ell)]
        base += [(ell, ell + 1, ell + 2), (ell, ell + 3, ell + 4)]
        for i in range(200):
            rng = random.Random(f"sharing:{n}:{i}")
            chosen = {cands.index(e) for e in base}
            covered = 0
            for c in chosen:
                covered |= bits[c]
            for _ in range(rng.randint(0, 4)):
                c = rng.randrange(len(cands))
                if not covered & bits[c]:
                    covered |= bits[c]
                    chosen.add(c)
            yield camp, tuple(sorted(chosen))


def test_claims_sharing_pairs_pinned():
    # exhaustive scopes within the caps never hold two off-cycle triples
    # that share a vertex, so the sharing-pair checks are pinned here
    rows = []
    paired = 0
    for camp, prefix in _sharing_pair_instances():
        ctx = camp.walk.replay(prefix, camp.advance, None)
        acc = _ClaimsAcc(camp.n)
        camp._full_check(acc, ctx)
        found = [(v["kind"], v["vertices"]) for v in acc.violations]
        rows.append((acc.vertices, acc.triples, acc.pairs, found))
        paired += acc.pairs > 0
        if ctx[0] >= 4:   # only the known length-3 false positive may fire
            assert found == []
    assert paired >= 500
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "850cb881ea26523a4428c92638d9fc8a44f16ce194b5ac669a72f0d9b77c83a5"


def _assert_s_l_matches_object_level(camp, ctx):
    # the mask-level S(u), L(u) at every touched off-cycle vertex against
    # the object-level reference on the same cycle
    h = camp.walk.snapshot()
    cyc = ctx[1]
    cover = {frozenset(p): e for e in h.edges for p in itertools.combinations(e, 2)}
    edges = tuple(cover[frozenset((v, cyc[(i + 1) % len(cyc)]))] for i, v in enumerate(cyc))
    cctx = structure.CycleContext.from_cycle(h, BergeCycle(vertices=cyc, hyperedges=edges))
    touched = {v for e in h.edges for v in e} - set(cyc)
    for u in sorted(touched):
        assert camp._s_l(ctx, u) == structure._peripheral_masks(h, cctx, u), (h, cyc, u)


def test_claims_s_l_matches_object_level():
    checked = 0
    for camp, prefix in _sharing_pair_instances():
        ctx = camp.walk.replay(prefix, camp.advance, None)
        _assert_s_l_matches_object_level(camp, ctx)
        checked += 1
    assert checked == 600
    cyclic = 0
    for n in range(3, enumeration.TINY_ALL_CYCLES + 1):
        camp = _ClaimsCampaign(n)
        cands = enumeration._candidates(n, "23")[0]
        instances = []
        enumerate_hypergraphs(n, "23", instances.append)
        for h in instances:
            ctx = camp.walk.replay(tuple(cands.index(e) for e in h.edges),
                                   camp.advance, None)
            if ctx is not None:
                _assert_s_l_matches_object_level(camp, ctx)
                cyclic += 1
    assert cyclic == 1 + 42 + 2008   # the cyclic instances at n = 3, 4, 5


def test_claims_walk_states_the_object_level_conditions():
    # at cycle length 3 the walk reports the known claim-triple false
    # positives; each must carry the law text of the object-level checkers
    h = validate(8, [(0, 1), (1, 2), (0, 2), (3, 4, 5), (3, 6, 7), (0, 4, 6)])
    camp = _ClaimsCampaign(8)
    cands = enumeration._candidates(8, "23")[0]
    ctx = camp.walk.replay(tuple(cands.index(e) for e in h.edges), camp.advance, None)
    acc = _ClaimsAcc(8)
    camp._full_check(acc, ctx)
    walk = {(v["kind"], v["condition"]) for v in acc.violations}
    found = structure.check_laws(h, structure.CycleContext.from_cycle(h, longest_berge_cycle(h)))[0]
    assert walk and walk <= {(v.kind, v.condition) for v in found}


def test_claims_recheck_records_each_oriented_cycle(monkeypatch):
    # with every object-level check failing, the n <= 5 re-check records
    # one violation per longest cycle and orientation, each around its own
    def one_violation(h, ctx):
        return [structure.Violation("claim-plus", (0,), 0, "stub", ())], 0, 0, 0

    monkeypatch.setattr(enumeration, "check_laws", one_violation)
    cycles: dict[str, list] = {}
    for v in verify_claims(4, jobs=1).violations:
        cycles.setdefault(v["instance"], []).append(tuple(v["cycle"]))
    assert len(cycles) == 42   # the cyclic instances at n = 4
    for instance, cs in cycles.items():
        assert len(set(cs)) == len(cs), instance


@pytest.mark.parametrize("name,stub,condition", [
    ("_cycle_through", lambda w, j, lower: None,
     "incremental context missing but a cycle exists"),
    ("all_longest_berge_cycles", lambda h: [],
     "incremental cycle length disagrees with solver"),
], ids=["no-context", "no-solver-cycle"])
def test_claims_recheck_reports_solver_mismatch(monkeypatch, name, stub, condition):
    # the n <= 5 re-check flags each cyclic instance where the walk's
    # context and the solver disagree, here forced on one side
    monkeypatch.setattr(enumeration, name, stub)
    r = verify_claims(4, jobs=1)
    assert len(r.violations) == 42   # the cyclic instances at n = 4
    assert {(v["kind"], v["condition"]) for v in r.violations} == {
        ("solver-mismatch", condition)}


def test_claims_random_small():
    r = verify_claims(9, samples=120, seed=5, jobs=1)
    assert r.holds and r.instances_checked == 120
    assert r.params["mode"] == "random"


def test_claims_random_cap():
    with pytest.raises(CapExceededError):
        verify_claims(13, samples=5)


def test_campaign_determinism_across_jobs():
    for build in (
        lambda j: verify_theorem_shadow(5, 4, jobs=j),
        lambda j: verify_remark(6, 2, jobs=j),
        lambda j: verify_claims(5, jobs=j),
        lambda j: verify_claims(9, samples=60, seed=11, jobs=j),
    ):
        d1 = build(1).as_dict()
        d2 = build(2).as_dict()
        assert d1 == d2


def test_campaign_workers_capped_by_units(monkeypatch):
    # a pool never has more workers than CPUs or work units, and one is no
    # pool; the CPU count is patched, so no process starts
    sizes = []

    class SerialPool:
        # records the worker count and runs every unit in this process
        def __init__(self, processes, initializer, initargs):
            sizes.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap_unordered(self, fn, units, chunksize=1):
            return map(fn, units)

    monkeypatch.setattr(enumeration, "Pool", SerialPool)
    monkeypatch.setattr(enumeration, "_WORKER", {})
    for cpus, n, jobs, want in ((16, 3, 8, []), (16, 4, 64, [13]), (16, 4, 2, [2]),
                                (3, 4, 64, [3]), (1, 4, 64, []), (3, 4, None, [3])):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        sizes.clear()
        d = verify_claims(n, jobs=jobs).as_dict()   # n = 3: no unit, n = 4: 13
        assert sizes == want
        serial = verify_claims(n, jobs=1).as_dict()
        assert d == serial


def _bound_summary(acc):
    return (acc.visited, acc.free, acc.max_shadow, sorted(acc.best),
            sorted(acc.violations, key=repr))


def _claims_summary(acc):
    return (acc.visited, acc.hist, acc.vertices, acc.triples, acc.pairs,
            sorted(acc.violations, key=repr))


@pytest.mark.parametrize("build,summary,k", [
    (lambda: _BoundCampaign(5, 4, "23", 2, 3 * 5), _bound_summary, 4),
    (lambda: _BoundCampaign(5, 3, "23", 2, 3 * 4), _bound_summary, 3),
    (lambda: _BoundCampaign(6, 3, "23", 2, 3 * 5), _bound_summary, 3),
    (lambda: _ClaimsCampaign(5), _claims_summary, None),
], ids=["theorem-shadow", "remark", "remark-6-3", "claims"])
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_split_walk_matches_unsplit(build, summary, k, depth):
    # run_top at any split depth plus every replayed unit is the whole walk
    camp = build()
    whole, none = camp.run_top(None)
    assert none == []
    acc, units = camp.run_top(depth)
    # a unit is (prefix, dead), dead holding the candidates pruned at or
    # above it; the path test first runs at k - 1 edges, so dead masks
    # cross a split at depth k or more
    assert units and all(len(u[0]) == depth for u in units)
    assert any(dead for _prefix, dead in units) == (k is not None and depth >= k)
    for unit in units:
        camp.walk.replay(unit[0], lambda j, state: state, None)
        assert camp.walk.live(), unit   # a unit always has something below it
        acc.merge(camp.run_prefix(unit))
    assert summary(acc) == summary(whole)
