import hashlib
import itertools
import random

import pytest

from berge import CapExceededError, shadow, validate
from berge.constructions import matching_k2, star_k3
from berge.enumeration import (
    CampaignParams,
    canonical_form,
    enumerate_hypergraphs,
    random_linear,
    verify_claims,
    verify_remark,
    verify_theorem_shadow,
    verify_theorem_uniform,
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
    params = CampaignParams(n=n, uniformity="23" if mixed else "3")
    assert enumerate_hypergraphs(params) == expected


@pytest.mark.parametrize("n,mixed", [(4, False), (5, False), (4, True)])
def test_enumeration_counts_against_brute_force(n, mixed):
    params = CampaignParams(n=n, uniformity="23" if mixed else "3")
    assert enumerate_hypergraphs(params) == _brute_force_count(n, mixed)


def test_enumeration_is_lexicographically_increasing():
    seen = []
    enumerate_hypergraphs(CampaignParams(n=5, uniformity="23"),
                          lambda h: seen.append(h.edges))
    assert all(a < b for a, b in zip(seen, seen[1:]))


def test_enumeration_visitor_prune():
    # pruning at every nonempty instance leaves the empty one plus one level
    params = CampaignParams(n=4, uniformity="3")
    visited = []

    def stop(h):
        visited.append(h)
        return h.m == 0

    enumerate_hypergraphs(params, stop)
    assert len(visited) == 1 + 4  # empty + each single triple


def test_enumeration_cap():
    with pytest.raises(CapExceededError):
        enumerate_hypergraphs(CampaignParams(n=9, uniformity="23"))


def test_enumeration_cap_env_override(monkeypatch):
    monkeypatch.setenv("HX_CAP_N", "3")
    with pytest.raises(CapExceededError):
        enumerate_hypergraphs(CampaignParams(n=4, uniformity="3"))
    monkeypatch.setenv("HX_CAP_N", "4")
    assert enumerate_hypergraphs(CampaignParams(n=4, uniformity="3")) == 5


def test_enumeration_isomorphism_classes():
    # n=3 mixed: 9 labeled instances in 5 classes (empty, one pair,
    # two-pair path, triangle, triple)
    labeled = []
    enumerate_hypergraphs(CampaignParams(n=3, uniformity="23"), labeled.append)
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
    with pytest.raises(CapExceededError):
        canonical_form(validate(9, []))


def test_theorem_uniform_small():
    r = verify_theorem_uniform(4, 4, jobs=1)
    assert r.holds and r.max_hyperedges == 1
    assert r.bound_value == "2"
    assert r.bp_free_count == 5
    r = verify_theorem_uniform(3, 4, jobs=1)
    assert r.holds and r.max_hyperedges == 1


def test_theorem_shadow_small():
    r = verify_theorem_shadow(4, 4, jobs=1)
    assert r.holds and r.max_shadow_edges == 6
    assert r.bound_value == "6"
    assert any("0 1\n" in w for w in r.extremal_witnesses)
    r = verify_theorem_shadow(5, 4, jobs=1)
    assert r.holds and r.max_shadow_edges == 7   # below the 15/2 bound
    r = verify_theorem_shadow(3, 4, jobs=1)
    assert r.holds and r.max_shadow_edges == 3


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


def test_claims_exhaustive_exercises_triples():
    r = verify_claims(6, jobs=2)
    assert r.holds
    assert r.instances_checked == 173808
    assert r.checked_triples > 0


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
        d1.pop("runtime_seconds")
        d2.pop("runtime_seconds")
        assert d1 == d2
