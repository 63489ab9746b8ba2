"""Acceptance suite: one test per exit criterion, printed pass/fail lines.

Bound comparisons are exact integer arithmetic throughout (2*e vs (k-1)*n
and 6*e vs (k-1)*n), never floating point.  Campaign-heavy criteria drive
the CLI verbs end to end; run with `pytest -v -s tests/test_acceptance.py`
to watch the per-criterion lines.
"""

import hashlib
import itertools
import json
import random
import time

import pytest

from berge import (
    has_berge_path,
    longest_berge_path,
    oracle_longest_path,
    parse_hg,
    shadow,
    validate,
)
from berge.cli import main, read_report
from berge.constructions import (
    extremal_disjoint_sts,
    fano,
    matching_k2,
    star_k3,
    sts_bose,
    sts_skolem,
    two_edge_clique,
)
from berge.enumeration import (
    _verify_bound,
    canonical_form,
    enumerate_hypergraphs,
    random_linear,
    verify_remark,
)

JOBS = "2"


def _line(tag, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {tag}: {detail}")
    assert ok, f"{tag}: {detail}"


def _witness_classes(witnesses):
    """Canonical form -> name of each isomorphism class among .hg witnesses:
    'star', 'triangle', or else the edge list of its first witness."""
    classes = {}
    for w in witnesses:
        h = parse_hg(w)
        form = canonical_form(h)
        if form in classes:
            continue
        if h.n % 2 == 1 and form == canonical_form(star_k3(h.n)):
            classes[form] = "star"
        elif form == canonical_form(validate(h.n, [(0, 1), (0, 2), (1, 2)])):
            classes[form] = "triangle"
        else:
            classes[form] = str(list(h.edges))
    return classes


def _run_verify(tmp_path, name, argv):
    out = tmp_path / f"{name}.json"
    code = main(argv + ["-o", str(out)])
    report = read_report(out.read_text())
    return code, report["result"]


def test_criterion_1_edge_bound_for_3_uniform(tmp_path, monkeypatch):
    """6*e(H) <= (k-1)*n over all 3-uniform path-free instances, n <= 8."""
    t0 = time.time()
    checked = 0
    for k in range(4, 8):
        for n in range(3, 9):
            code, res = _run_verify(
                tmp_path, f"c1_{n}_{k}",
                ["verify", "theorem-uniform", "--n", str(n), "--k", str(k),
                 "--jobs", JOBS])
            assert code == 0, (n, k)
            assert res["holds"] is True
            assert res["violations"] == []
            assert 6 * res["max_hyperedges"] <= (k - 1) * n
            checked += res["instances_checked"]
            if (n, k) == (7, 7):
                # a Steiner system on 7 points attains the bound exactly
                assert res["max_hyperedges"] == 7
                assert 6 * 7 == (7 - 1) * 7
    # ... and it is the only extremal class there: the Fano plane
    fano_classes = _verify_bound("theorem-uniform", 7, 7, "3", 6, 42,
                                 int(JOBS), collect_classes=True,
                                 family=lambda n: fano())
    assert fano_classes.extremal_class_count == 1
    assert fano_classes.extremal_matches_family is True
    # on 9 points the maximum is 12 triples, met only by AG(2,3), the
    # Steiner triple system on 9 points: its 840 labeled ties are one class
    monkeypatch.setenv("HX_CAP_N", "9")
    ag23 = _verify_bound("theorem-uniform", 9, 9, "3", 6, 72, int(JOBS),
                         collect_classes=True, family=lambda n: sts_bose(9))
    assert ag23.max_hyperedges == 12
    assert ag23.extremal_class_count == 1
    assert ag23.extremal_matches_family is True
    _line("criterion-1", True,
          f"24 campaigns, {checked} instances visited, zero violations; "
          f"AG(2,3) is the one extremal class at (9, 9) "
          f"({time.time() - t0:.0f}s)")


# the exact maximum shadow size of a {2,3}-uniform linear hypergraph on n
# vertices with no Berge path of length k, for n = 3..7 and k = 4..7
SHADOW_MAXIMA = {
    3: (3, 3, 3, 3),
    4: (6, 6, 6, 6),
    5: (7, 10, 10, 10),
    6: (9, 12, 15, 15),
    7: (10, 12, 15, 21),
}


def test_criterion_2_shadow_bound_for_mixed(tmp_path):
    """2*e(shadow) <= (k-1)*n over all {2,3}-uniform path-free instances."""
    t0 = time.time()
    checked = 0
    for k in range(4, 8):
        for n in range(3, 8):
            code, res = _run_verify(
                tmp_path, f"c2_{n}_{k}",
                ["verify", "theorem-shadow", "--n", str(n), "--k", str(k),
                 "--jobs", JOBS])
            assert code == 0, (n, k)
            assert res["holds"] is True
            assert res["violations"] == []
            assert 2 * res["max_shadow_edges"] <= (k - 1) * n
            assert res["max_shadow_edges"] == SHADOW_MAXIMA[n][k - 4], (n, k)
            checked += res["instances_checked"]
            if (n, k) == (4, 4):
                assert res["max_shadow_edges"] == 6   # equality via 2-edge clique
    _line("criterion-2", True,
          f"20 campaigns, {checked} instances visited, zero violations "
          f"({time.time() - t0:.0f}s)")


def test_criterion_3_sharpness_certificates():
    for copies in (1, 2):
        h = extremal_disjoint_sts(7, copies)
        n = 7 * copies
        assert 6 * h.m == (7 - 1) * n          # e(H) = (k-1)n/6 with k=7
        assert not has_berge_path(h, 7)
    t = two_edge_clique(4)
    assert shadow(t).edge_count == 6
    assert 2 * 6 == (4 - 1) * 4
    assert not has_berge_path(t, 4)
    _line("criterion-3", True,
          "disjoint Steiner unions (7,1),(7,2) and the 4-vertex pair clique "
          "meet their bounds exactly and avoid the forbidden paths")


def test_criterion_4_short_path_cases():
    t0 = time.time()
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)

    # k = 1: no edges at all
    for n in range(1, 8):
        r = verify_remark(n, 1, jobs=2)
        expect(r.holds and r.max_shadow_edges == 0, f"k=1 n={n}: max nonzero")
    # k = 2: bound n, equality exactly at triple matchings
    for n in range(3, 8):
        r = verify_remark(n, 2, jobs=2)
        expect(r.holds, f"k=2 n={n}: bound violated")
        if n % 3 == 0:
            expect(r.max_shadow_edges == n, f"k=2 n={n}: max != n")
            expect(r.extremal_class_count == 1
                   and r.extremal_matches_family is True,
                   f"k=2 n={n}: extremal class not uniquely the matching")
        else:
            expect(r.max_shadow_edges < n, f"k=2 n={n}: max not < n")
    # k = 3: bound 3(n-1)/2, equality at stars for odd n.  A Berge path of
    # length 3 needs four distinct vertices, so on n = 3 the triangle of
    # three 2-edges is path-free too and ties the star at 3 shadow edges:
    # there the extremal classes are exactly {star, triangle}.  From n = 5
    # on the triangle plus isolated vertices falls short of 3(n-1)/2, and
    # the star is the unique class.
    for n in range(3, 8):
        r = verify_remark(n, 3, jobs=2)
        expect(r.holds and 2 * r.max_shadow_edges <= 3 * (n - 1),
               f"k=3 n={n}: bound violated")
        if n % 2 == 1:
            expect(2 * r.max_shadow_edges == 3 * (n - 1),
                   f"k=3 n={n}: max below the bound")
            classes = _witness_classes(r.extremal_witnesses)
            found = ", ".join(sorted(classes.values()))
            if n == 3:
                expected = {canonical_form(star_k3(3)),
                            canonical_form(two_edge_clique(3))}
                expect(r.extremal_class_count == 2
                       and r.extremal_matches_family is False
                       and set(classes) == expected,
                       f"k=3 n=3: extremal classes are not exactly the star "
                       f"and the triangle ({r.extremal_class_count} classes: "
                       f"{found})")
                # independent brute force: no anchored search, no tie tracking
                best, maxima = -1, set()

                def keep(h):
                    nonlocal best, maxima
                    if has_berge_path(h, 3):
                        return
                    s = shadow(h).edge_count
                    if s > best:
                        best, maxima = s, set()
                    if s == best:
                        maxima.add(canonical_form(h))

                enumerate_hypergraphs(3, "23", keep)
                expect(best == r.max_shadow_edges and maxima == expected,
                       f"k=3 n=3: brute force disagrees with the campaign "
                       f"(max {best}, {len(maxima)} classes)")
            else:
                expect(r.extremal_class_count == 1
                       and r.extremal_matches_family is True,
                       f"k=3 n={n}: extremal class not uniquely the star "
                       f"({r.extremal_class_count} classes: {found})")
    _line("criterion-4", not failures,
          f"short-path maxima and extremal classes for n <= 7: "
          f"{'all reproduced' if not failures else '; '.join(failures)} "
          f"({time.time() - t0:.0f}s)")


def test_criterion_5_solver_oracle_equivalence():
    t0 = time.time()
    disagreements = []
    exhaustive = 0

    def compare(h):
        nonlocal exhaustive
        exhaustive += 1
        a = longest_berge_path(h)
        b = oracle_longest_path(h)
        if (a.length if a else None) != b:
            disagreements.append(h)

    for n in range(1, 6):
        enumerate_hypergraphs(n, "23", compare)
    sampled = 0
    for n in (4, 5, 6, 7):
        for i in range(250):
            compare(random_linear(n, random.Random(f"acc5:{n}:{i}")))
            sampled += 1
    assert sampled >= 1000
    _line("criterion-5", not disagreements,
          f"{exhaustive} exhaustive (n <= 5) + {sampled} random (n <= 7) "
          f"instances, {len(disagreements)} disagreements "
          f"({time.time() - t0:.0f}s)")


def test_criterion_6_structural_law_campaigns(tmp_path):
    t0 = time.time()
    total = 0
    for n in range(3, 8):
        code, res = _run_verify(
            tmp_path, f"c6_{n}",
            ["verify", "claims", "--n", str(n), "--jobs", JOBS])
        assert code == 0 and res["holds"] is True, n
        assert res["violations"] == []
        total += res["instances_checked"]
    # the loop ends at n = 7: its labeled values, which a class-level
    # campaign must reproduce
    assert (res["instances_checked"], res["cyclic_instances"], res["checked_vertices"],
            res["checked_triples"], res["checked_pairs"]) == (
        31_590_702, 31_470_966, 13_278_308, 68_766, 0)
    assert res["cycle_length_histogram"] == {
        "3": 589_855, "4": 1_195_397, "5": 3_343_431, "6": 8_379_987, "7": 17_962_296}
    assert hashlib.sha256(json.dumps(res, sort_keys=True).encode()).hexdigest() == (
        "c75e9ad7ebd27a519baaa82559e75efa05fcf7d8a1218114c3a8e4dccfae1443")
    code, res = _run_verify(
        tmp_path, "c6_random",
        ["verify", "claims", "--n", "12", "--samples", "10000",
         "--seed", "1729", "--jobs", JOBS])
    assert code == 0 and res["holds"] is True
    assert res["violations"] == []
    assert res["instances_checked"] == 10000
    assert res["checked_pairs"] > 0        # sharing-triple law exercised
    _line("criterion-6", True,
          f"exhaustive n <= 7 ({total} instances) plus 10^4 random n=12, "
          f"zero violations ({time.time() - t0:.0f}s)")


def test_criterion_7_steiner_constructions():
    for gen, orders in ((sts_bose, (3, 9, 15, 21)), (sts_skolem, (7, 13, 19))):
        for n in orders:
            h = gen(n)
            assert h.m == n * (n - 1) // 6
            count = {p: 0 for p in itertools.combinations(range(n), 2)}
            for e in h.edges:
                for p in itertools.combinations(e, 2):
                    count[p] += 1
            assert all(c == 1 for c in count.values()), n
    _line("criterion-7", True,
          "pair coverage exactly once and n(n-1)/6 triples for orders "
          "3,9,15,21 and 7,13,19")


def test_criterion_8_report_determinism(tmp_path):
    t0 = time.time()
    commands = [
        ["verify", "remark", "--n", "6", "--k", "2", "--jobs", JOBS],
        ["verify", "theorem-shadow", "--n", "5", "--k", "4", "--jobs", JOBS],
        ["verify", "claims", "--n", "5", "--jobs", JOBS],
        ["verify", "claims", "--n", "10", "--samples", "200", "--seed", "42",
         "--jobs", JOBS],
    ]
    for i, argv in enumerate(commands):
        outs = []
        for rep in range(2):
            path = tmp_path / f"c8_{i}_{rep}.json"
            assert main(argv + ["-o", str(path)]) == 0
            data = json.loads(path.read_text())
            data.pop("timing")
            outs.append(json.dumps(data, sort_keys=True))
        assert outs[0] == outs[1], argv
        # job count must not matter either
        path = tmp_path / f"c8_{i}_j1.json"
        assert main(argv[:-2] + ["--jobs", "1", "-o", str(path)]) == 0
        data = json.loads(path.read_text())
        data.pop("timing")
        assert json.dumps(data, sort_keys=True) == outs[0], argv
    _line("criterion-8", True,
          f"byte-identical reports modulo timing, including across job "
          f"counts ({time.time() - t0:.0f}s)")
