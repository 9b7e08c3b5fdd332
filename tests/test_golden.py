"""Golden outputs: one sha256 over what the library answers on every labeled
graph with at most five vertices, so that no change alters an output
without saying so.  A change that alters outputs on purpose re-pins the
digest and names the change."""
import hashlib
import json

from biphole import (
    ConditionReport,
    condition_names,
    cycle_through_heavy,
    heavy_path,
    hole_number,
    run_condition,
    write_graph6,
)
from biphole.generators import enumerate_labeled
from biphole.sweep import property_names, run_enumerated

GOLDEN_SHA256 = "2841a1d2a2b6add294ddafdf8308c7db0840e72cb60210e517712d7395ea2c02"


def _answer(fn, *args):
    """A report's JSON, a walk's vertices, or the error the call raised."""
    try:
        out = fn(*args)
    except Exception as exc:  # errors and their messages are outputs too
        return f"{type(exc).__name__}: {exc}"
    return out.to_json() if isinstance(out, ConditionReport) else out.vertices


def _lines():
    for n in range(6):
        for g in enumerate_labeled(n):
            g6 = write_graph6(g)
            yield g6 + " dist " + repr([g.distances_from(v) for v in range(g.n)])
            for name in condition_names():
                yield g6 + " " + json.dumps(_answer(run_condition, name, g))
            yield g6 + " cycle " + repr(_answer(cycle_through_heavy, g))
            at = hole_number(g) if g.n else 0
            heavy = [v for v in range(g.n) if g.degree(v) > at]
            for u in heavy:
                for v in heavy:
                    if u != v:
                        yield f"{g6} path {u} {v} " + repr(_answer(heavy_path, g, u, v))
    sweep = run_enumerated(5, list(property_names()))
    yield json.dumps([sweep.checked, sweep.skipped, sweep.failures], sort_keys=True)


def test_outputs_match_pinned_digest():
    digest = hashlib.sha256("\n".join(_lines()).encode()).hexdigest()
    assert digest == GOLDEN_SHA256
