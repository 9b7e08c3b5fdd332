"""Golden outputs: one sha256 over what the library answers on every labeled
graph with at most five vertices, so that no change alters an output
without saying so.  A change that alters outputs on purpose re-pins the
digest and names the change."""
import hashlib
import json

from biphole import (
    BipholeError,
    ConditionReport,
    bipartite_hole_number,
    condition_names,
    cycle_through_heavy,
    find_hole,
    heavy_path,
    hole_number,
    run_condition,
    write_graph6,
)
from biphole.cycles import _cycle_through_heavy, _require_two_connected
from biphole.generators import enumerate_labeled, erdos_renyi
from biphole.paths import _heavy_path
from biphole.sweep import property_names, run_enumerated

GOLDEN_SHA256 = "2841a1d2a2b6add294ddafdf8308c7db0840e72cb60210e517712d7395ea2c02"

# The constructions on 300 seeded G(n, p) with n = 8..14: 14,092 ordered
# heavy pairs, whose absorption rounds close in every template group (93,226
# through the connector directly or by a common neighbor, 1,375 by a bridge,
# 3,583 anchored).  The n <= 5 corpus above never reaches the bridge.
CONSTRUCTION_SHA256 = "9f04dc9f8ab9ba387c93824d1f10e3c7637cb319321f2dcda38b32d486c278fa"
CONSTRUCTION_P = ((1, 2), (2, 3), (3, 4), (1, 3))

# The constructions on every labeled graph with n = 6, the graphs the n = 6
# sweep runs: the cycle or its error, and the path on each of the 42,510
# ordered heavy pairs, from one certificate per graph as the sweep does.
N6_CONSTRUCTION_SHA256 = "3109833fb5d8c1bf12690c6e909d2c26206fc99123f9b182520776f16d3f5cd6"

# Certificates (value, hole-free pair, each level witness's sorted sides) and
# the find_hole answers for s, t <= 3 on every labeled graph with 1 <= n <= 6
# plus 400 seeded G(n, p) with n = 7..16: 34,267 graphs.  Pinned before the
# certificate scan shared its prefix unions, and unchanged by it.
CERTIFICATE_SHA256 = "8fc505b0e7ab204aad2445879482c1e6196c19191968368d0e9dd67b0eadd182"
CERTIFICATE_P = ((1, 2), (1, 4), (3, 4), (1, 3))


def _answer(fn, *args):
    """A report's JSON, a walk's vertices, or the error the call raised."""
    try:
        out = fn(*args)
    except Exception as exc:  # errors and their messages are outputs too
        return f"{type(exc).__name__}: {exc}"
    return out.to_json() if isinstance(out, ConditionReport) else out.vertices


def _construction_lines(g, g6):
    yield g6 + " cycle " + repr(_answer(cycle_through_heavy, g))
    at = hole_number(g) if g.n else 0
    heavy = [v for v in range(g.n) if g.degree(v) > at]
    for u in heavy:
        for v in heavy:
            if u != v:
                yield f"{g6} path {u} {v} " + repr(_answer(heavy_path, g, u, v))


def _shared_certificate_lines(g, g6):
    """``_construction_lines`` with one certificate for every call."""
    cert = bipartite_hole_number(g)

    def answer(body, *args):
        try:
            return body(g, *args, cert).vertices
        except BipholeError as exc:
            return f"{type(exc).__name__}: {exc}"

    def cycle(g, cert):
        _require_two_connected(g.is_two_connected())
        return _cycle_through_heavy(g, cert)

    yield g6 + " cycle " + repr(answer(cycle))
    heavy = [v for v in range(g.n) if g.degree(v) > cert.value]
    for u in heavy:
        for v in heavy:
            if u != v:
                yield f"{g6} path {u} {v} " + repr(answer(_heavy_path, u, v))


def _lines():
    for n in range(6):
        for g in enumerate_labeled(n):
            g6 = write_graph6(g)
            yield g6 + " dist " + repr([g.distances_from(v) for v in range(g.n)])
            for name in condition_names():
                yield g6 + " " + json.dumps(_answer(run_condition, name, g))
            yield from _construction_lines(g, g6)
    sweep = run_enumerated(5, list(property_names()))
    yield json.dumps([sweep.checked, sweep.skipped, sweep.failures], sort_keys=True)


def _sides(w):
    return f"{sorted(w.s_side)}|{sorted(w.t_side)}"


def _certificate_lines():
    corpus = [g for n in range(1, 7) for g in enumerate_labeled(n)]
    corpus += [erdos_renyi(7 + i % 10, *CERTIFICATE_P[i % 4], 11000 + i) for i in range(400)]
    for g in corpus:
        cert = bipartite_hole_number(g)
        s, t = cert.hole_free_pair
        witnesses = " ".join(map(_sides, cert.level_witnesses))
        yield f"{write_graph6(g)} {cert.value} {s},{t} {witnesses}"
        yield " ".join(
            "-" if (w := find_hole(g, a, b)) is None else _sides(w)
            for a in range(1, 4)
            for b in range(1, 4)
        )


def test_outputs_match_pinned_digest():
    digest = hashlib.sha256("\n".join(_lines()).encode()).hexdigest()
    assert digest == GOLDEN_SHA256


def test_constructions_match_pinned_digest():
    lines = []
    for i in range(300):
        g = erdos_renyi(8 + i % 7, *CONSTRUCTION_P[i % 4], 5000 + i)
        lines += _construction_lines(g, write_graph6(g))
    assert sum(" path " in line for line in lines) == 14092
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == CONSTRUCTION_SHA256


def test_n6_constructions_match_pinned_digest():
    lines = [
        line
        for g in enumerate_labeled(6)
        for line in _shared_certificate_lines(g, write_graph6(g))
    ]
    assert sum(" path " in line for line in lines) == 42510
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == N6_CONSTRUCTION_SHA256


def test_certificates_match_pinned_digest():
    lines = list(_certificate_lines())
    assert len(lines) == 2 * 34267
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == CERTIFICATE_SHA256
