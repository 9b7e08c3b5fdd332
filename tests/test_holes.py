"""Hole search and the hole-number, anchored to the naive double enumeration."""
import copy
import dataclasses
import pickle
import time
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import biphole.holes as holes_mod
import biphole.oracle as oracle_mod
from biphole import (
    MAX_VERTICES,
    Graph,
    HoleCertificate,
    HoleWitness,
    SizeGuardError,
    bipartite_hole_number,
    complete,
    cycle,
    empty,
    erdos_renyi,
    find_hole,
    hole_number,
    independence_number,
    min_closed_neighborhood,
    naive_hole_number,
    naive_hole_oracle,
    path,
    petersen,
    validate_certificate,
)

from biphole.generators import enumerate_labeled
from biphole.graph import mask_of

from conftest import graphs, seeded_graphs
from test_golden import CERTIFICATE_P


def test_min_closed_neighborhood():
    value, argmin = min_closed_neighborhood(cycle(5), 2)
    assert value == 4 and argmin == {0, 1}
    assert min_closed_neighborhood(complete(4), 1) == (4, frozenset({0}))
    assert min_closed_neighborhood(empty(5), 2) == (2, frozenset({0, 1}))
    with pytest.raises(ValueError):
        min_closed_neighborhood(empty(5), 0)


def test_fixed_limit_answers_with_s_near_n_at_the_order_cap():
    # The pruned search recurses once per chosen vertex; at the order cap
    # of 512 vertices the deepest searches, s = n and s = n - 1, still
    # answer within the default recursion limit.
    n = MAX_VERTICES
    assert min_closed_neighborhood(empty(n), n) == (n, frozenset(range(n)))
    # On a path every (n - 1)-set covers all n vertices; the first is the
    # lowest n - 1.
    assert min_closed_neighborhood(path(n), n - 1) == (n, frozenset(range(n - 1)))
    assert find_hole(empty(n), n // 2, n // 2) == HoleWitness(
        range(n // 2), range(n // 2, n)
    )
    assert find_hole(complete(n), n // 2, n // 2) is None


def test_fixed_limit_answers_on_every_graph_to_n6():
    # Every labeled graph with n <= 6 and every s, t: find_hole and
    # min_closed_neighborhood answer as the plain lexicographic scans of
    # the references would.  The scans share one table of |N[S]| per graph.
    answers = 0
    for n in range(1, 7):
        for g in enumerate_labeled(n):
            closed = {}  # s -> [(S, N[S]'s mask)], in lexicographic order
            for s in range(1, n + 1):
                closed[s] = [
                    (subset, g.closed_neighborhood_mask(mask_of(subset)))
                    for subset in combinations(range(n), s)
                ]
                least = min(m.bit_count() for _, m in closed[s])
                argmin = next(sub for sub, m in closed[s] if m.bit_count() == least)
                assert min_closed_neighborhood(g, s) == (least, frozenset(argmin))
            for s in range(1, n + 1):
                for t in range(1, n + 1):
                    small, large = min(s, t), max(s, t)
                    expected = None
                    for subset, m in closed[small] if s + t <= n else ():
                        if m.bit_count() <= n - large:
                            free = [v for v in range(n) if not m >> v & 1]
                            expected = HoleWitness(subset, free[:large])
                            break
                    if expected is not None and s > t:
                        expected = expected.swapped()
                    assert find_hole(g, s, t) == expected
                    answers += 1
            answers += n
    assert answers == 1_408_366


def test_find_hole_examples():
    w = find_hole(cycle(5), 1, 2)
    assert w == HoleWitness(frozenset({0}), frozenset({2, 3}))
    assert w.is_valid(cycle(5))
    assert find_hole(complete(4), 1, 1) is None
    assert find_hole(cycle(5), 2, 2) is None


def test_find_hole_swapped_sides():
    w = find_hole(cycle(5), 2, 1)
    assert w is not None and w.sizes == (2, 1)
    assert w.is_valid(cycle(5))


def test_hole_number_spot_values():
    # Each value double-checked by the naive oracle before being pinned.
    for g, expected in [
        (complete(4), 1),
        (path(3), 2),
        (cycle(5), 3),
        (petersen(), 5),
        (empty(3), 3),
        (empty(1), 1),
    ]:
        assert naive_hole_number(g) == expected
        assert hole_number(g) == expected


def test_kernel_agrees_with_the_certificate():
    # Every labeled graph with n <= 6 and the 400 seeded G(n, p) of the
    # pinned certificate digest: the pruned kernel and the cursor ascent are
    # two searches that check each other, on the value and on the hole-free
    # split, the kernel's being (s, k + 1 - s) for its smallest minimising s.
    corpus = [g for n in range(1, 7) for g in enumerate_labeled(n)]
    corpus += [erdos_renyi(7 + i % 10, *CERTIFICATE_P[i % 4], 11000 + i) for i in range(400)]
    assert len(corpus) == 34_267
    for g in corpus:
        cert = bipartite_hole_number(g)
        value, s = holes_mod._profile_kernel(g._closed)
        assert (value, (s, value + 1 - s)) == (cert.value, cert.hole_free_pair)
        assert hole_number(g) == value


def test_kernel_values_above_the_cursor_reach():
    # Values the cursor search computed, in 25 s and 293 s; the kernel
    # takes well under a second on each.
    assert hole_number(erdos_renyi(30, 1, 8, 1)) == 24
    assert hole_number(erdos_renyi(40, 1, 4, 1)) == 21


def test_hole_number_of_the_empty_graph_raises():
    with pytest.raises(ValueError, match="at least one vertex"):
        hole_number(Graph(0))


def test_certificates():
    for g in [complete(4), path(3), cycle(5), empty(4), petersen()]:
        cert = bipartite_hole_number(g)
        assert validate_certificate(g, cert)
        assert cert.value == hole_number(g)
        s, t = cert.hole_free_pair
        assert 1 <= s <= t and s + t == cert.value + 1
        assert len(cert.level_witnesses) == cert.value - 1


def test_validate_certificate_is_fast_at_n20():
    g = erdos_renyi(20, 1, 4, 1)
    cert = bipartite_hole_number(g)
    assert (cert.value, cert.hole_free_pair) == (15, (8, 8))
    t0 = time.perf_counter()
    assert validate_certificate(g, cert)
    assert time.perf_counter() - t0 < 1.0


def test_validate_certificate_rejects_holed_pair():
    g = petersen()
    cert = bipartite_hole_number(g)
    # (2, 4) is a tight hole: an edge's two closed neighbourhoods cover
    # exactly n - t = 6 vertices.
    assert min_closed_neighborhood(g, 2) == (6, frozenset({0, 1}))
    for pair in [(1, 5), (2, 4)]:
        bogus = dataclasses.replace(cert, hole_free_pair=pair)
        assert find_hole(g, *pair) is not None
        assert not validate_certificate(g, bogus)


def test_validate_certificate_rejects_malformed_certificates():
    g = petersen()
    cert = bipartite_hole_number(g)
    assert (cert.value, cert.hole_free_pair) == (5, (3, 3))
    ws = cert.level_witnesses
    for bogus in [
        # s + t must be k + 1.
        dataclasses.replace(cert, hole_free_pair=(3, 4)),
        dataclasses.replace(cert, value=6),
        # One witness per split of k.
        dataclasses.replace(cert, level_witnesses=ws[:-1]),
        dataclasses.replace(cert, level_witnesses=ws + ws[:1]),
        # The (1, 4) witness turned round: still a hole, but a (4, 1) one.
        dataclasses.replace(cert, level_witnesses=(ws[0].swapped(), *ws[1:])),
    ]:
        assert not validate_certificate(g, bogus)
    # A negative vertex id has no bit in a side mask: the witness is refused
    # when it is built, so no certificate can carry it into validation.
    with pytest.raises(ValueError, match="negative vertex id -1"):
        dataclasses.replace(
            cert,
            level_witnesses=(HoleWitness(frozenset({-1}), frozenset({2, 3, 4, 5})), *ws[1:]),
        )


def test_hole_witness_rejects_malformed_sides():
    g = empty(4)
    assert HoleWitness(frozenset({0, 1}), frozenset({2, 3})).is_valid(g)
    assert not HoleWitness(frozenset(), frozenset({1})).is_valid(g)
    assert not HoleWitness(frozenset({1}), frozenset()).is_valid(g)
    assert not HoleWitness(frozenset({0, 1}), frozenset({1, 2})).is_valid(g)
    assert not HoleWitness(frozenset({0}), frozenset({4})).is_valid(g)
    assert not HoleWitness(frozenset({9}), frozenset({0})).is_valid(g)
    for s_side, t_side in [({-1}, {2}), ({2}, {-1}), ({0, -3}, {1})]:
        with pytest.raises(ValueError, match="negative vertex id"):
            HoleWitness(frozenset(s_side), frozenset(t_side))


@dataclasses.dataclass(frozen=True)
class _SetWitness:
    """``HoleWitness`` as first written, the reference for the masks: a
    frozen dataclass of two frozensets."""

    s_side: frozenset
    t_side: frozenset

    @property
    def sizes(self):
        return len(self.s_side), len(self.t_side)

    def swapped(self):
        return _SetWitness(self.t_side, self.s_side)

    def is_valid(self, g):
        if not self.s_side or not self.t_side:
            return False
        sm = mask_of(self.s_side)
        tm = mask_of(self.t_side)
        if (sm | tm) >> g.n or sm & tm:
            return False
        return all(g.adj_mask(v) & tm == 0 for v in self.s_side)


# Empty, overlapping, out-of-range and negative sides all occur.
_sides = st.frozensets(st.integers(-2, 9), max_size=5)


@given(graphs(max_n=8), st.lists(st.tuples(_sides, _sides), min_size=1, max_size=4))
@settings(max_examples=400, deadline=None)
@example(empty(4), [(frozenset({0, 1}), frozenset({2, 3}))] * 2)
@example(empty(4), [(frozenset({0, 1}), frozenset({1, 2})), (frozenset(), frozenset({1}))])
@example(cycle(5), [(frozenset({0}), frozenset({2, 3})), (frozenset({-1}), frozenset({2}))])
def test_hole_witness_matches_set_based_reference(g, sides):
    built = []
    for s_side, t_side in sides:
        if min(s_side | t_side, default=0) < 0:
            with pytest.raises(ValueError, match="negative vertex id"):
                HoleWitness(s_side, t_side)
            continue
        w, ref = HoleWitness(s_side, t_side), _SetWitness(s_side, t_side)
        assert (w.s_side, w.t_side) == (ref.s_side, ref.t_side)
        assert w.sizes == ref.sizes
        assert w.is_valid(g) == ref.is_valid(g)
        assert w.swapped() == HoleWitness(t_side, s_side)
        assert w.swapped().is_valid(g) == ref.swapped().is_valid(g)
        with pytest.raises(AttributeError):
            w.s_mask = 0
        assert pickle.loads(pickle.dumps(w)) == w == copy.deepcopy(w) == copy.copy(w)
        # A witness is the tuple of its two masks, and equals a plain one.
        assert w == (mask_of(s_side), mask_of(t_side)) == tuple(w) == (w.s_mask, w.t_mask)
        assert len(w) == 2 and type(pickle.loads(pickle.dumps(w))) is HoleWitness
        built.append((w, ref))
    for w, ref in built:
        for w2, ref2 in built:
            assert (w == w2) == (ref == ref2)
            assert w != ref2 and (w != w2) == (ref != ref2)
            if w == w2:
                assert hash(w) == hash(w2)
    assert len({w for w, _ in built}) == len({ref for _, ref in built})


def test_certificate_smallest_s_first():
    assert bipartite_hole_number(cycle(5)).hole_free_pair == (1, 3)
    assert bipartite_hole_number(complete(4)).hole_free_pair == (1, 1)


def test_naive_oracle_examples():
    assert naive_hole_oracle(complete(4), 1, 1) is None
    w = naive_hole_oracle(empty(4), 2, 2)
    assert w == HoleWitness(frozenset({0, 1}), frozenset({2, 3}))


def test_naive_oracle_size_guard(monkeypatch):
    with pytest.raises(SizeGuardError):
        naive_hole_oracle(empty(15), 1, 1)
    with pytest.raises(SizeGuardError):
        naive_hole_number(empty(15))
    monkeypatch.setattr(oracle_mod, "DEFAULT_LIMIT", 15)
    assert naive_hole_oracle(empty(15), 1, 1) is not None
    # Past the default guard the cached t-subset masks are still exact.
    w = naive_hole_oracle(empty(15), 7, 8)
    assert w == HoleWitness(frozenset(range(7)), frozenset(range(7, 15)))
    assert naive_hole_oracle(empty(15), 8, 8) is None
    assert naive_hole_number(empty(15)) == 15


@given(graphs(min_n=1, max_n=7))
@settings(max_examples=120, deadline=None)
def test_find_hole_agrees_with_naive(g):
    for s in range(1, g.n + 1):
        for t in range(1, g.n - s + 1):
            fast = find_hole(g, s, t)
            slow = naive_hole_oracle(g, s, t)
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert fast.is_valid(g) and fast.sizes == (s, t)


@given(graphs(min_n=1, max_n=8))
@settings(max_examples=100, deadline=None)
def test_symmetry(g):
    for s in range(1, g.n + 1):
        for t in range(s, g.n - s + 1):
            assert (find_hole(g, s, t) is None) == (find_hole(g, t, s) is None)


@given(graphs(min_n=1, max_n=8))
@settings(max_examples=100, deadline=None)
def test_characterization_by_min_closed_neighborhood(g):
    for s in range(1, g.n):
        least = _reference_min_closed_neighborhood(g, s)
        assert min_closed_neighborhood(g, s) == least
        for t in range(1, g.n - s + 1):
            expected = least[0] <= g.n - t
            assert (find_hole(g, s, t) is not None) == expected


@given(graphs(min_n=2, max_n=8))
@settings(max_examples=100, deadline=None)
def test_monotone_under_edge_addition(g):
    base = hole_number(g)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.has_edge(u, v):
                assert hole_number(g.add_edge(u, v)) <= base
                break
        else:
            continue
        break


@given(graphs(min_n=1, max_n=8))
@settings(max_examples=100, deadline=None)
def test_range_and_independence_bound(g):
    value = hole_number(g)
    assert 1 <= value <= g.n
    assert value >= independence_number(g)
    if g.n >= 2:
        assert (value == 1) == (g.m == g.n * (g.n - 1) // 2)


def test_random_agreement_with_naive():
    for g in seeded_graphs(60, 9, seed=5):
        assert hole_number(g) == naive_hole_number(g)


def _reference_min_closed_neighborhood(g, s):
    """The unpruned scan: every s-set in lexicographic order, and the first
    one of least |N[S]|."""
    best = None
    for subset in combinations(range(g.n), s):
        size = g.closed_neighborhood_mask(mask_of(subset)).bit_count()
        if best is None or size < best[0]:
            best = size, frozenset(subset)
    return best


def _reference_find_hole(g, s, t):
    """One fresh lexicographic scan over the smaller side."""
    if s > t:
        w = _reference_find_hole(g, t, s)
        return None if w is None else w.swapped()
    if s + t > g.n:
        return None
    for subset in combinations(range(g.n), s):
        closed = g.closed_neighborhood_mask(mask_of(subset))
        if closed.bit_count() <= g.n - t:
            free = [v for v in range(g.n) if not closed >> v & 1]
            return HoleWitness(frozenset(subset), frozenset(free[:t]))
    return None


def _reference_certificate(g):
    """The ascent without cursors: a fresh scan for every split of every
    level, then a fresh search for each level witness."""
    k = 0
    while True:
        k += 1
        for s in range(1, (k + 1) // 2 + 1):
            t = k + 1 - s
            if _reference_find_hole(g, s, t) is None:
                witnesses = tuple(_reference_find_hole(g, sp, k - sp) for sp in range(1, k))
                return HoleCertificate(k, (s, t), witnesses)


@given(graphs(min_n=1, max_n=9))
@settings(max_examples=150, deadline=None)
def test_cursor_ascent_matches_reference_ascent(g):
    cert = bipartite_hole_number(g)
    assert cert == _reference_certificate(g)
    assert hole_number(g) == cert.value


def test_cursor_ascent_matches_reference_on_seeded_graphs():
    for g in seeded_graphs(60, 14, seed=11, min_n=7):
        assert bipartite_hole_number(g) == _reference_certificate(g)


class _Tracked(int):
    """A closed mask that knows which vertices' masks were ORed into it and
    records that vertex set each time its size is taken."""

    log: list = []

    def __new__(cls, value, members):
        obj = super().__new__(cls, value)
        obj.members = members
        return obj

    def __or__(self, other):
        return _Tracked(int(self) | int(other), self.members | getattr(other, "members", frozenset()))

    __ror__ = __or__

    def bit_count(self):
        self.log.append(tuple(sorted(self.members)))
        return int(self).bit_count()


def test_certificate_scans_each_subset_at_most_once():
    # Every s-set the search evaluates has its |N[S]| taken once; per s the
    # evaluated sets must be the first ones of ``combinations`` order, each
    # once, with none skipped.
    for g in [petersen(), cycle(9), erdos_renyi(14, 1, 4, 3), erdos_renyi(16, 1, 2, 5)]:
        g._closed = tuple(_Tracked(m, frozenset({v})) for v, m in enumerate(g._closed))
        _Tracked.log = []
        bipartite_hole_number(g)
        by_size = {}
        for subset in _Tracked.log:
            by_size.setdefault(len(subset), []).append(subset)
        assert sum(map(len, by_size.values())) > g.n
        for s, seen in by_size.items():
            assert seen == list(combinations(range(g.n), s))[: len(seen)]


@st.composite
def _cursor_runs(draw):
    g = draw(graphs(min_n=1, max_n=8))
    s = draw(st.sampled_from([1, g.n, *range(1, g.n + 1)]))
    limits = draw(st.lists(st.integers(-1, g.n + 1), min_size=1, max_size=6))
    return g, s, sorted(limits, reverse=True)


def _first_fit(g, s, limit):
    """The mask of the first s-set S with |N[S]| <= limit and N[S]'s mask."""
    for subset in combinations(range(g.n), s):
        s_mask = mask_of(subset)
        closed = g.closed_neighborhood_mask(s_mask)
        if closed.bit_count() <= limit:
            return s_mask, closed
    return None


@given(_cursor_runs())
@settings(max_examples=300, deadline=None)
@example((complete(1), 1, [1, 0]))  # s = 1 = n
@example((cycle(5), 1, [3, 2]))  # s = 1, then a failed seek
@example((cycle(5), 5, [5, 4]))  # s = n, then a failed seek
@example((path(5), 2, [5, 4, 3, 3, 2]))  # a set that still fits is kept
def test_cursor_returns_the_first_fitting_set(run):
    # Under non-increasing limits the cursor answers as a fresh lexicographic
    # scan would, up to its first None; no caller sends after that.
    g, s, limits = run
    cursor = holes_mod._fitting_sets(g._closed, s)
    next(cursor)
    for limit in limits:
        expected = _first_fit(g, s, limit)
        assert cursor.send(limit) == expected
        if expected is None:
            break


@given(_cursor_runs())
@settings(max_examples=300, deadline=None)
@example((complete(1), 1, [1, 0]))  # s = 1 = n
@example((cycle(5), 5, [5, 4]))  # s = n, then no set fits
@example((path(5), 2, [-1]))  # the argmin
def test_pruned_search_returns_the_first_fitting_set(run):
    # Over the closed masks in vertex order, the pruned search records the
    # lexicographically first set that fits, or with nothing fitting the
    # first lexicographic argmin, as its docstring argues.
    g, s, limits = run
    for limit in limits:
        size, s_mask = holes_mod._min_union(g._closed, s, limit)
        fit = _first_fit(g, s, limit)
        if fit is not None:
            assert (size, s_mask) == (fit[1].bit_count(), fit[0])
        else:
            least, argmin = _reference_min_closed_neighborhood(g, s)
            assert size > limit and (size, s_mask) == (least, mask_of(argmin))


def _reference_naive_hole(g, s, t):
    """The double enumeration as first written: T runs over the t-subsets
    of the vertices outside S, and misses the open neighbourhood of S."""
    for s_set in combinations(range(g.n), s):
        sm = mask_of(s_set)
        rest = [v for v in range(g.n) if not (sm >> v & 1)]
        sn = 0
        for v in s_set:
            sn |= g.adj_mask(v)
        for t_set in combinations(rest, t):
            if not sn & mask_of(t_set):
                return HoleWitness(frozenset(s_set), frozenset(t_set))
    return None


def _reference_naive_number(g):
    k = 0
    while True:
        k += 1
        for s in range(1, (k + 1) // 2 + 1):
            if _reference_naive_hole(g, s, k + 1 - s) is None:
                return k


@given(graphs(min_n=1, max_n=8))
@settings(max_examples=150, deadline=None)
def test_naive_oracle_matches_reference_enumeration(g):
    for s in range(1, g.n + 2):
        for t in range(1, g.n + 2):
            assert naive_hole_oracle(g, s, t) == _reference_naive_hole(g, s, t)
    assert naive_hole_number(g) == _reference_naive_number(g)


def test_naive_oracle_shares_nothing_with_the_search(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the naive oracle reached the fast search")

    for name in (
        "_fitting_sets",
        "min_closed_neighborhood",
        "find_hole",
        "bipartite_hole_number",
        "_min_union",
        "_profile_kernel",
        "hole_number",
    ):
        monkeypatch.setattr(holes_mod, name, forbidden)
    for g, value in [(petersen(), 5), (cycle(5), 3), (empty(6), 6)]:
        assert naive_hole_number(g) == value
        for s in range(1, g.n + 1):
            for t in range(1, g.n + 1):
                w = naive_hole_oracle(g, s, t)
                assert w == _reference_naive_hole(g, s, t)
                assert w is None or (w.is_valid(g) and w.sizes == (s, t))


def test_naive_oracle_matches_reference_from_a_cold_and_a_warm_cache():
    # The first free T is cached by (n, t, blocked) alone, with no graph in
    # the key.  From an empty cache and again from the one every labeled
    # graph to n = 5 filled, the oracle answers as the double enumeration.
    holes_mod._first_free.cache_clear()
    misses = []
    for _ in ("cold", "warm"):
        for n in range(1, 6):
            for g in enumerate_labeled(n):
                for s in range(1, n + 1):
                    for t in range(1, n + 1):
                        assert naive_hole_oracle(g, s, t) == _reference_naive_hole(g, s, t)
        misses.append(holes_mod._first_free.cache_info().misses)
    assert misses[0] > 0 and misses[1] == misses[0]


def test_first_free_cache_is_bounded():
    # Keys grow with the blocked masks of each order, up to 2^n of them, so
    # the cache keeps a fixed number of entries, not one per key ever seen.
    assert holes_mod._first_free.cache_info().maxsize == 1 << 14


# Graphs with their pinned hole-number and the certificate's hole-free pair.
_CERTIFIED = [
    (petersen(), 5, (3, 3)),
    (cycle(5), 3, (1, 3)),
    (empty(6), 6, (1, 6)),
    (erdos_renyi(20, 1, 4, 1), 15, (8, 8)),
]


def _forbid(monkeypatch, names, what):
    def forbidden(*args, **kwargs):
        raise AssertionError(what)

    for name in names:
        monkeypatch.setattr(holes_mod, name, forbidden)


def test_certificate_shares_nothing_with_the_kernel(monkeypatch):
    # The certificate's ascent alone, with the pruned search and everything
    # that reads it replaced by functions that raise.
    _forbid(monkeypatch, ("_min_union", "_profile_kernel", "hole_number"),
            "the certificate reached the pruned search")
    for g, value, pair in _CERTIFIED:
        cert = bipartite_hole_number(g)
        assert (cert.value, cert.hole_free_pair) == (value, pair)
        if g.n <= 10:
            assert naive_hole_number(g) == value


def test_validation_shares_nothing_with_the_cursor(monkeypatch):
    # The other direction: the pruned search accepts the cursor's
    # certificates, and finds no hole at their pairs, without the cursor.
    certs = [(g, bipartite_hole_number(g)) for g, _, _ in _CERTIFIED]
    _forbid(monkeypatch, ("_fitting_sets",), "the validation reached the cursor")
    for g, cert in certs:
        s, t = cert.hole_free_pair
        assert validate_certificate(g, cert)
        assert find_hole(g, s, t) is None and find_hole(g, t, s) is None
        assert min_closed_neighborhood(g, s)[0] > g.n - t


def _milp_hole_number(g):
    """The hole-number by the ascent over k of the definition, each split
    (s, t) of k + 1 decided by HiGHS: is there an s-set S with |N[S]| <= n - t?
    With x the indicator of S and y that of N[S], that is Σ x_u = s,
    y_v >= x_u for u in N[v] and Σ y_v <= n - t, x and y binary.  A set S
    found also settles every t' <= n - |N[S]| for its s.  Nothing of the
    library's searches is used."""
    np = pytest.importorskip("numpy")
    opt = pytest.importorskip("scipy.optimize")
    n = g.n
    cover = np.zeros((n + 2 * g.m, 2 * n))
    row = 0
    for v in range(n):
        for u in [v, *g.neighbors(v)]:
            cover[row, n + v], cover[row, u] = 1, -1
            row += 1
    sides = np.zeros((2, 2 * n))
    sides[0, :n] = sides[1, n:] = 1
    reach = {}  # s -> n - |N[S]| for the last s-set S found

    def hole(s, t):
        if t <= reach.get(s, 0):
            return True
        if s + t > n:
            return False
        res = opt.milp(
            np.zeros(2 * n),
            constraints=[
                opt.LinearConstraint(cover, 0, np.inf),
                opt.LinearConstraint(sides, [s, 0], [s, n - t]),
            ],
            integrality=np.ones(2 * n),
            bounds=opt.Bounds(0, 1),
        )
        assert res.status in (0, 2), res.message  # feasible, or proved infeasible
        if res.status == 2:
            return False
        chosen = [u for u in range(n) if res.x[u] > 0.5]
        reach[s] = n - len({*chosen, *(w for u in chosen for w in g.neighbors(u))})
        return True

    k = 0
    while True:
        k += 1
        if not all(hole(s, k + 1 - s) for s in range(1, (k + 1) // 2 + 1)):
            return k


def test_kernel_agrees_with_milp_oracle_above_the_naive_reach():
    # An anchor for n = 15..24, past the naive oracles' n <= 14, that shares
    # no code with the kernel or the cursor: one G(n, p) per order, sparse
    # (p = 1/4, 1/8: large values, deep searches) and dense (p = 3/4).
    pytest.importorskip("scipy")
    p = ((1, 4), (1, 8), (3, 4))
    values = []
    for i in range(10):
        g = erdos_renyi(15 + i, *p[i % 3], 21000 + i)
        values.append(_milp_hole_number(g))
        assert hole_number(g) == values[-1]
    assert values == [11, 16, 5, 13, 16, 5, 14, 20, 5, 16]
