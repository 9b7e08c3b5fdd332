"""Bipartite holes and the exact bipartite-hole-number with certificates.

An (s,t)-bipartite-hole is a pair of disjoint vertex sets S, T with |S| = s,
|T| = t and no edge between them.  The bipartite-hole-number of G is the
least k such that some split s + t = k + 1 (s, t >= 1) admits no such hole.

Key reduction: an (s,t)-hole exists iff some s-set S has |N[S]| <= n - t,
because T must avoid S and all its neighbors.  Enumeration is lexicographic
over the smaller side, so witnesses are deterministic.

Watch the vacuous case: when s + t > n no hole can exist, so the number of
an edgeless graph on n vertices is n, and a single vertex gives 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import InternalInconsistencyError, SizeGuardError
from .graph import Graph, mask_of

NAIVE_LIMIT = 14


@dataclass(frozen=True)
class HoleWitness:
    """Disjoint sets with no crossing edge; sizes are (s, t) = (|S|, |T|)."""

    s_side: frozenset[int]
    t_side: frozenset[int]

    @property
    def sizes(self) -> tuple[int, int]:
        return len(self.s_side), len(self.t_side)

    def swapped(self) -> "HoleWitness":
        return HoleWitness(self.t_side, self.s_side)

    def is_valid(self, g: Graph) -> bool:
        if not self.s_side or not self.t_side:
            return False
        sm = mask_of(self.s_side)
        tm = mask_of(self.t_side)
        if (sm | tm) >> g.n or sm & tm:
            return False
        return all(g.adj_mask(v) & tm == 0 for v in self.s_side)


@dataclass(frozen=True)
class HoleCertificate:
    """Value k plus evidence.

    ``hole_free_pair`` is an (s, t) with s + t = k + 1 and no (s,t)-hole,
    establishing the upper bound.  ``level_witnesses`` holds one hole per
    split (s', t') of k itself, s' = 1..k-1 in order, establishing the lower
    bound (a hole for every split of k implies one for every smaller level).
    Empty when k = 1.
    """

    value: int
    hole_free_pair: tuple[int, int]
    level_witnesses: tuple[HoleWitness, ...]


def min_closed_neighborhood(g: Graph, s: int) -> tuple[int, frozenset[int]]:
    """Minimum |N[S]| over all s-subsets, with the first lexicographic argmin."""
    if not 1 <= s <= g.n:
        raise ValueError(f"s={s} outside 1..{g.n}")
    closed = [g.adj_mask(v) | (1 << v) for v in range(g.n)]
    best = g.n + 1
    best_set: tuple[int, ...] = ()
    for subset in combinations(range(g.n), s):
        m = 0
        for v in subset:
            m |= closed[v]
        size = m.bit_count()
        if size < best:
            best = size
            best_set = subset
    return best, frozenset(best_set)


def find_hole(g: Graph, s: int, t: int) -> HoleWitness | None:
    """A validated (s,t)-hole witness, or None.

    Enumerates the smaller side (existence is symmetric in S and T); T is
    the lexicographically first t-subset outside N[S].
    """
    if s < 1 or t < 1:
        raise ValueError("hole sides must have size at least 1")
    if s > t:
        w = find_hole(g, t, s)
        return None if w is None else w.swapped()
    n = g.n
    if s + t > n:
        return None
    closed = [g.adj_mask(v) | (1 << v) for v in range(n)]
    limit = n - t
    for subset in combinations(range(n), s):
        m = 0
        for v in subset:
            m |= closed[v]
        if m.bit_count() <= limit:
            free = [v for v in range(n) if not (m >> v & 1)]
            return HoleWitness(frozenset(subset), frozenset(free[:t]))
    return None


def has_hole(g: Graph, s: int, t: int) -> bool:
    return find_hole(g, s, t) is not None


def bipartite_hole_number(g: Graph) -> HoleCertificate:
    """Exact value with certificate; search ascends k = 1, 2, ...

    Within a level, splits are tried with increasing s, so the recorded
    hole-free pair has the smallest s (and s <= t), which is what the
    constructive cycle and path routines consume.
    """
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    k = 0
    while True:
        k += 1
        level = k + 1
        for s in range(1, level // 2 + 1):
            t = level - s
            if find_hole(g, s, t) is None:
                witnesses = []
                for sp in range(1, k):
                    w = find_hole(g, sp, k - sp)
                    if w is None:
                        raise InternalInconsistencyError(
                            f"level {k} should be fully holed but ({sp},{k - sp}) is not"
                        )
                    witnesses.append(w)
                return HoleCertificate(k, (s, t), tuple(witnesses))
        # every split of k+1 has a hole; ascend


def validate_certificate(g: Graph, cert: HoleCertificate) -> bool:
    """Independent check of a certificate: each level witness is validated
    as a hole, and the hole-free pair by one enumeration of the s-sets
    (no (s,t)-hole iff every s-set S has |N[S]| > n - t)."""
    k = cert.value
    s, t = cert.hole_free_pair
    if k < 1 or s < 1 or t < 1 or s + t != k + 1:
        return False
    if len(cert.level_witnesses) != max(k - 1, 0):
        return False
    for i, w in enumerate(cert.level_witnesses):
        if w.sizes != (i + 1, k - i - 1) or not w.is_valid(g):
            return False
    return s > g.n or min_closed_neighborhood(g, s)[0] > g.n - t


def _guard(g: Graph, max_n: int | None) -> None:
    limit = NAIVE_LIMIT if max_n is None else max_n
    if g.n > limit:
        raise SizeGuardError(
            f"naive enumeration guarded at n <= {limit}; got n = {g.n}"
        )


def naive_hole_oracle(g: Graph, s: int, t: int, max_n: int | None = None) -> HoleWitness | None:
    """Double enumeration over all (S, T) pairs; correctness anchor for find_hole."""
    if s < 1 or t < 1:
        raise ValueError("hole sides must have size at least 1")
    _guard(g, max_n)
    n = g.n
    for s_set in combinations(range(n), s):
        sm = mask_of(s_set)
        rest = [v for v in range(n) if not (sm >> v & 1)]
        sn = 0
        for v in s_set:
            sn |= g.adj_mask(v)
        for t_set in combinations(rest, t):
            if not sn & mask_of(t_set):
                return HoleWitness(frozenset(s_set), frozenset(t_set))
    return None


def naive_hole_number(g: Graph, max_n: int | None = None) -> int:
    """Hole-number by brute force, independent of the fast search."""
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    _guard(g, max_n)
    k = 0
    while True:
        k += 1
        for s in range(1, (k + 1) // 2 + 1):
            if naive_hole_oracle(g, s, k + 1 - s, max_n=max_n) is None:
                return k


def hole_number(g: Graph) -> int:
    """Just the value, without building a certificate's witnesses."""
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    k = 0
    while True:
        k += 1
        for s in range(1, (k + 1) // 2 + 1):
            if find_hole(g, s, k + 1 - s) is None:
                return k
