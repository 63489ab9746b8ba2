"""Isomorphism-class counts by the Cauchy–Frobenius–Burnside lemma.

The number of classes of labeled instances on n vertices is
(1/n!) Σ_g fix(g), where fix(g) counts the instances that the vertex
permutation g maps onto themselves.  The sum runs over the cycle types of
S_n, each weighted by its class size.  fix(identity) is the labeled count,
which the caller supplies; every other term is a small search here.  A
g-invariant instance is a union of ⟨g⟩-orbits of candidate edges, so the
search picks orbits whose members are pairwise linear and which share no
vertex pair with each other.  Nothing here calls ``canonical_form``, so the
counts are an independent check on it, and a nonzero remainder is a failed
check on the labeled count.
"""

import itertools
from math import factorial, prod


def cycle_types(n: int):
    """(cycle lengths, class size) for every cycle type of S_n."""

    def parts(rest: int, top: int):
        if rest == 0:
            yield ()
            return
        for k in range(min(rest, top), 0, -1):
            for tail in parts(rest - k, k):
                yield (k,) + tail

    for lengths in parts(n, n):
        counts = [lengths.count(k) for k in set(lengths)]
        size = factorial(n) // (prod(lengths) * prod(factorial(c) for c in counts))
        yield lengths, size


def _permutation(lengths) -> list[int]:
    """A permutation with the given cycle lengths, on consecutive blocks."""
    g = []
    for k in lengths:
        start = len(g)
        g += [start + (i + 1) % k for i in range(k)]
    return g


def _orbits(n: int, uniformity: str, g: list[int]):
    """(members, pair mask) for each ⟨g⟩-orbit of candidate edges whose
    members are pairwise linear, i.e. cover no vertex pair twice."""
    sizes = (2, 3) if uniformity == "23" else (3,)
    pair_bit = {p: 1 << i for i, p in enumerate(itertools.combinations(range(n), 2))}
    seen = set()
    out = []
    for r in sizes:
        for e in itertools.combinations(range(n), r):
            if e in seen:
                continue
            members = []
            while e not in members:
                members.append(e)
                e = tuple(sorted(g[v] for v in e))
            seen.update(members)
            mask = 0
            pairs = 0
            for m in members:
                for p in itertools.combinations(m, 2):
                    mask |= pair_bit[p]
                    pairs += 1
            if mask.bit_count() == pairs:
                out.append((tuple(members), mask))
    return out


def fixed_count(n: int, uniformity: str, g: list[int], keep=None) -> int:
    """The number of g-invariant linear instances, or, with ``keep``, of
    those for which keep(edges, pair_mask) holds.  The pair mask has one
    bit per covered vertex pair, so its popcount is the shadow size."""
    orbits = _orbits(n, uniformity, g)
    count = 0

    def dfs(start: int, edges: list, mask: int):
        nonlocal count
        if keep is None or keep(tuple(edges), mask):
            count += 1
        for i in range(start, len(orbits)):
            members, m = orbits[i]
            if not mask & m:
                dfs(i + 1, edges + list(members), mask | m)

    dfs(0, [], 0)
    return count


def class_count(n: int, uniformity: str, labeled: int, keep=None) -> tuple[int, int]:
    """(classes, remainder) of the Burnside sum, given the identity term
    ``labeled`` counted under the same ``keep``."""
    total = labeled
    for lengths, size in cycle_types(n):
        if lengths != (1,) * n:
            total += size * fixed_count(n, uniformity, _permutation(lengths), keep)
    return divmod(total, factorial(n))
