"""Bipartite holes and the exact bipartite-hole-number with certificates.

An (s,t)-bipartite-hole is a pair of disjoint vertex sets S, T with |S| = s,
|T| = t and no edge between them.  The bipartite-hole-number of G is the
least k such that some split s + t = k + 1 (s, t >= 1) admits no such hole.

Key reduction: an (s,t)-hole exists iff some s-set S has |N[S]| <= n - t,
because T must avoid S and all its neighbors.  Enumeration is lexicographic
over the smaller side, so witnesses are deterministic: S is the first s-set
that fits, T the first t vertices outside N[S].  A witness keeps both sides
as vertex masks, like the graph's adjacency, so T is the lowest t bits of
the complement of N[S], and checking a witness is a few ANDs.  Every search
below reads the closed masks N[v] that each ``Graph`` builds once, as
``g._closed``, with its adjacency.

One pruned search, ``_min_union``, answers every question with a fixed
limit: a depth-first search over the s-sets in lexicographic order that
carries the union of their closed masks and cuts a branch once the union
is no smaller than the least one recorded.  Over the closed masks in
vertex order it answers ``find_hole``, ``min_closed_neighborhood`` and the
hole-free pair of ``validate_certificate`` with the sets of a plain
lexicographic scan (its docstring says why).

The value alone comes from the same search in the profile kernel.  Let
f(s) be the least |N[S]| over the s-sets; an (s,t)-hole exists iff
t <= n - f(s), so the number is the least s + n - f(s).  The kernel orders
the vertices by closed degree, and an s ends early once some set has
|N[S]| <= s + n - best, because then its term is no smaller than the best
one.  The scan over s stops once 2s > best: swapping the sides of a
hole-free split, some term that attains the number k has 2s <= k + 1, and
while best > k such an s is still ahead with 2s <= best.  The kernel also
returns the smallest s whose term attains the number k: (s, k + 1 - s) is
then hole-free and no smaller s has a hole-free split of k + 1, so it is
the pair the certificate records.

The certificate ascends the levels k + 1 = 2, 3, ... with one lexicographic
cursor per s, ``_fitting_sets``, which prunes nothing.  From one level to
the next t = k + 1 - s grows and the limit n - t falls, so the first
fitting s-set can only move forward: each split resumes where its s last
stopped, and no s-set is scanned twice in one certificate.  The holes
found one level below are the lower-bound witnesses, with the sides
swapped for s' > k/2.  The cursor and the pruned search check each other:
the kernel's value and pair against the certificate's, and the
certificate's pair in ``validate_certificate``.

The naive oracles are the independent anchor for n <= 14 and call none of
the above.  They build their own closed masks from ``adj_mask``, so a fault
in ``g._closed`` cannot hide in them.  For each s-set S in lexicographic
order they walk the lexicographic t-subset masks of all n vertices (built
once per (n, t) and cached) up to the first T that misses S and N(S).  The
masks that avoid S come in the order of the t-subsets of V - S, so the
witness is the plain double enumeration's.  The test is an edge check per
(S, T), not the |N[S]| reduction, so a fault in either search cannot hide
in the oracles.  The walk's answer depends on n, t and the blocked mask
S | N(S) alone, so ``_first_free`` caches it under that key, in at most
2^14 entries.  The key holds no graph, only the oracles' own masks: every
S still gets its own blocked mask and its own first free T, and graphs of
one order share the entries.

Watch the vacuous case: when s + t > n no hole can exist, so the number of
an edgeless graph on n vertices is n, and a single vertex gives 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import itemgetter
from typing import Iterable, Sequence

from .graph import Graph, iter_bits, mask_of
from .oracle import _guard


def _side_mask(side: Iterable[int]) -> int:
    side = tuple(side)
    if side and min(side) < 0:
        raise ValueError(f"hole side has negative vertex id {min(side)}")
    return mask_of(side)


class HoleWitness(tuple):
    """Disjoint sets with no crossing edge; sizes are (s, t) = (|S|, |T|).

    A witness is the tuple ``(s_mask, t_mask)`` of its sides' vertex masks;
    ``s_side`` and ``t_side`` are frozensets built when read.  A mask has
    no bit for a negative vertex id, so the constructor raises
    ``ValueError`` for one.  As a tuple, a witness is immutable, hashable,
    ordered, and equal to any tuple of the same two masks.
    """

    __slots__ = ()

    def __new__(cls, s_side: Iterable[int], t_side: Iterable[int]):
        return tuple.__new__(cls, (_side_mask(s_side), _side_mask(t_side)))

    @classmethod
    def _from_masks(cls, s_mask: int, t_mask: int) -> "HoleWitness":
        # Trusted fast path: both masks are non-negative.
        return tuple.__new__(cls, (s_mask, t_mask))

    def __getnewargs__(self):
        # For pickle and copy, which rebuild a tuple subclass through __new__.
        return self.s_side, self.t_side

    s_mask = property(itemgetter(0))
    t_mask = property(itemgetter(1))

    @property
    def s_side(self) -> frozenset[int]:
        return frozenset(iter_bits(self[0]))

    @property
    def t_side(self) -> frozenset[int]:
        return frozenset(iter_bits(self[1]))

    @property
    def sizes(self) -> tuple[int, int]:
        return self[0].bit_count(), self[1].bit_count()

    def swapped(self) -> "HoleWitness":
        return HoleWitness._from_masks(self[1], self[0])

    def is_valid(self, g: Graph) -> bool:
        sm, tm = self
        if not sm or not tm or (sm | tm) >> g.n or sm & tm:
            return False
        adj = g._adj
        while sm:
            low = sm & -sm
            if adj[low.bit_length() - 1] & tm:
                return False
            sm ^= low
        return True

    def __repr__(self):
        return f"HoleWitness(s_side={self.s_side!r}, t_side={self.t_side!r})"


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


def _min_union(order: Sequence[int], s: int, enough: int) -> tuple[int, int]:
    """The least popcount of an OR of s masks of ``order``, or the first one
    found that is at most ``enough``, with the mask of the positions in
    ``order`` of its s masks.

    The s-sets of positions are searched in lexicographic order; a set is
    recorded only if its size is below ``best``, the least recorded so far,
    and a branch is cut once its union is no smaller than ``best``.  In
    vertex order, if F is the first s-set with |N[F]| <= ``enough``, every
    set recorded before F, and so ``best``, is larger than ``enough`` while
    every prefix of F has a union no larger, so F is reached and recorded.
    With ``enough`` = -1 the same holds for the first lexicographic argmin,
    and no later set is recorded, as none is smaller.  The search recurses
    once per chosen mask, s deep; a graph has at most MAX_VERTICES = 512
    vertices, within the interpreter's default recursion limit of 1000.
    """
    n = len(order)
    best = n + 1
    best_mask = 0

    def extend(start: int, left: int, union: int, picked: int) -> bool:
        nonlocal best, best_mask
        for i in range(start, n - left + 1):
            m = union | order[i]
            size = m.bit_count()
            if size >= best:
                continue
            if left > 1:
                if extend(i + 1, left - 1, m, picked | 1 << i):
                    return True
            else:
                best, best_mask = size, picked | 1 << i
                if size <= enough:
                    return True
        return False

    extend(0, s, 0, 0)
    return best, best_mask


def min_closed_neighborhood(g: Graph, s: int) -> tuple[int, frozenset[int]]:
    """Minimum |N[S]| over all s-subsets, with the first lexicographic argmin.
    The search recurses s deep (see ``_min_union``)."""
    if not 1 <= s <= g.n:
        raise ValueError(f"s={s} outside 1..{g.n}")
    size, s_mask = _min_union(g._closed, s, -1)
    return size, frozenset(iter_bits(s_mask))


def _witness(n: int, s_mask: int, closed: int, t: int) -> HoleWitness:
    """S = ``s_mask`` with closed neighbourhood ``closed``; T = the first t
    vertices outside it, the lowest t bits of the complement."""
    free = ~closed & ((1 << n) - 1)
    tm = 0
    for _ in range(t):
        low = free & -free
        tm |= low
        free ^= low
    return HoleWitness._from_masks(s_mask, tm)


def find_hole(g: Graph, s: int, t: int) -> HoleWitness | None:
    """A validated (s,t)-hole witness, or None.

    Searches the smaller side (existence is symmetric in S and T): S is the
    lexicographically first s-set with |N[S]| <= n - t, T the first t
    vertices outside N[S].  The search recurses min(s, t) deep (see
    ``_min_union``).
    """
    if s < 1 or t < 1:
        raise ValueError("hole sides must have size at least 1")
    if s > t:
        w = find_hole(g, t, s)
        return None if w is None else w.swapped()
    n = g.n
    if s + t > n:
        return None
    size, s_mask = _min_union(g._closed, s, n - t)
    if size > n - t:
        return None
    return _witness(n, s_mask, g.closed_neighborhood_mask(s_mask), t)


def validate_certificate(g: Graph, cert: HoleCertificate) -> bool:
    """Independent check of a certificate: each level witness is validated
    as a hole, and the hole-free pair by the pruned search, not the
    certificate's cursor (no (s,t)-hole iff every s-set S has
    |N[S]| > n - t)."""
    k = cert.value
    s, t = cert.hole_free_pair
    if k < 1 or s < 1 or t < 1 or s + t != k + 1:
        return False
    if len(cert.level_witnesses) != max(k - 1, 0):
        return False
    for i, w in enumerate(cert.level_witnesses):
        if w.sizes != (i + 1, k - i - 1) or not w.is_valid(g):
            return False
    return _min_union(g._closed, s, g.n - t)[0] > g.n - t


def _fitting_sets(closed: Sequence[int], s: int):
    """A lexicographic cursor over the s-subsets: primed with ``next``, each
    ``send(limit)`` answers the mask of the first s-set S with
    |N[S]| <= limit and its closed mask, or None once no set is left.
    Limits must not rise, so each send resumes where the last one stopped
    and a set is answered again while it still fits; nothing may be sent
    after a None.  The scan ORs each (s-1)-prefix's closed masks once and
    extends it by every later vertex j: (prefix, j) is ``combinations``
    order, and each s-set costs one OR."""
    n = len(closed)
    limit = yield
    for prefix in combinations(range(n - 1), s - 1):
        union = 0
        for v in prefix:
            union |= closed[v]
        for j in range(prefix[-1] + 1 if prefix else 0, n):
            m = union | closed[j]
            size = m.bit_count()
            while size <= limit:
                limit = yield mask_of(prefix) | 1 << j, m
    yield None


def bipartite_hole_number(g: Graph) -> HoleCertificate:
    """Exact value with certificate; search ascends k = 1, 2, ...

    Within a level, splits are tried with increasing s, so the recorded
    hole-free pair has the smallest s (and s <= t), which is what the
    constructive cycle and path routines consume.  One cursor per s serves
    every level, and the witnesses are the holes of the level below (see
    the module docstring).
    """
    n = g.n
    if n < 1:
        raise ValueError("graph must have at least one vertex")
    closed = g._closed
    cursors = []
    below: list[tuple[int, int]] = []  # level k's holes (S, N[S]), by s
    k = 0
    while True:
        k += 1
        level = k + 1
        holes = []
        for s in range(1, level // 2 + 1):
            t = level - s
            if s + t <= n:
                if s > len(cursors):
                    cursors.append(_fitting_sets(closed, s))
                    next(cursors[-1])
                hole = cursors[s - 1].send(n - t)
                if hole is not None:
                    holes.append(hole)
                    continue
            witnesses = tuple(
                _witness(n, *below[sp - 1], k - sp)
                if 2 * sp <= k
                else _witness(n, *below[k - sp - 1], sp).swapped()
                for sp in range(1, k)
            )
            return HoleCertificate(k, (s, t), witnesses)
        # every split of k+1 has a hole; ascend
        below = holes


@lru_cache(maxsize=128)
def _subset_masks(n: int, t: int) -> tuple[int, ...]:
    """The bitmasks of the t-subsets of ``range(n)``, in lexicographic order."""
    return tuple(mask_of(subset) for subset in combinations(range(n), t))


@lru_cache(maxsize=1 << 14)
def _first_free(n: int, t: int, blocked: int) -> int | None:
    """The first mask of ``_subset_masks(n, t)`` that misses ``blocked``;
    None if every one meets it."""
    for tm in _subset_masks(n, t):
        if not tm & blocked:
            return tm
    return None


def _naive_hole(
    n: int, closed: list[int], s: int, t: int
) -> tuple[tuple[int, ...], int] | None:
    """The first s-set S and, for it, the first t-set mask T of ``range(n)``
    with T & (S | N(S)) == 0, both in lexicographic order; None if no pair
    fits.  ``closed[v]`` is the mask of N[v].  Each S asks the cached
    ``_first_free`` for its T once, with its own blocked mask."""
    if s + t > n:
        return None
    for s_set in combinations(range(n), s):
        blocked = 0
        for v in s_set:
            blocked |= closed[v]
        tm = _first_free(n, t, blocked)
        if tm is not None:
            return s_set, tm
    return None


def naive_hole_oracle(g: Graph, s: int, t: int) -> HoleWitness | None:
    """Double enumeration over all (S, T) pairs; correctness anchor for find_hole."""
    if s < 1 or t < 1:
        raise ValueError("hole sides must have size at least 1")
    _guard(g)
    n = g.n
    hole = _naive_hole(n, [g.adj_mask(v) | 1 << v for v in range(n)], s, t)
    if hole is None:
        return None
    s_set, tm = hole
    return HoleWitness._from_masks(mask_of(s_set), tm)


def naive_hole_number(g: Graph) -> int:
    """Hole-number by brute force, independent of the fast search."""
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    _guard(g)
    n = g.n
    closed = [g.adj_mask(v) | 1 << v for v in range(n)]
    k = 0
    while True:
        k += 1
        for s in range(1, (k + 1) // 2 + 1):
            if _naive_hole(n, closed, s, k + 1 - s) is None:
                return k


def _profile_kernel(closed: Sequence[int]) -> tuple[int, int]:
    """The least s + n - f(s), f(s) the least |N[S]| over the s-sets, and
    the smallest s that attains it, for n >= 1 closed masks; only the s
    with 2s <= best are scanned (see the module docstring).  That s is the
    certificate's: (s, k + 1 - s) is hole-free for k the value, and no
    smaller s has a hole-free split of k + 1.  The masks are sorted by
    size, so f(1) is the first one's and s = 1 needs no search."""
    n = len(closed)
    order = sorted(closed, key=int.bit_count)
    best = 1 + n - order[0].bit_count()
    best_s = 1
    s = 2
    while 2 * s <= best:
        term = s + n - _min_union(order, s, s + n - best)[0]
        if term < best:
            best, best_s = term, s
        s += 1
    return best, best_s


def hole_number(g: Graph) -> int:
    """The value of ``bipartite_hole_number``, from the pruned profile
    kernel instead of the certificate's cursor search."""
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    return _profile_kernel(g._closed)[0]
