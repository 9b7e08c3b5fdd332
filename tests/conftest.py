"""Shared strategies and corpus helpers for the test suite."""
from __future__ import annotations

from itertools import combinations

from hypothesis import strategies as st

from biphole import Graph, erdos_renyi


@st.composite
def graphs(draw, min_n=0, max_n=8):
    """Random labeled graph via an edge subset."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    picks = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph(n, picks)


@st.composite
def walk_candidates(draw, max_n=7):
    """A graph and a vertex sequence: half the time a simple path of the
    graph grown one unvisited neighbour at a time, else any ids in -1..n,
    repeats allowed."""
    g = draw(graphs(min_n=1, max_n=max_n))
    if draw(st.booleans()):
        seq = [draw(st.integers(0, g.n - 1))]
        while draw(st.integers(0, 4)):
            step = [w for w in g.neighbors(seq[-1]) if w not in seq]
            if not step:
                break
            seq.append(draw(st.sampled_from(step)))
    else:
        seq = draw(st.lists(st.integers(-1, g.n), max_size=g.n + 1))
    return g, seq


def seeded_graphs(count, max_n, seed, min_n=1, densities=((1, 4), (1, 2), (3, 4))):
    """Deterministic mixed-density corpus used by several sweeps."""
    out = []
    i = 0
    while len(out) < count:
        n = min_n + (seed + i) % (max_n - min_n + 1)
        num, den = densities[i % len(densities)]
        out.append(erdos_renyi(n, num, den, seed * 1000003 + i))
        i += 1
    return out


def seeded_two_connected(count, max_n, seed):
    """Deterministic 2-connected corpus (rejection-sampled)."""
    out = []
    i = 0
    while len(out) < count:
        n = 3 + (seed + i) % (max_n - 2)
        num, den = ((1, 2), (2, 3), (3, 4))[i % 3]
        g = erdos_renyi(n, num, den, seed * 999983 + i)
        i += 1
        if g.is_two_connected():
            out.append(g)
    return out
