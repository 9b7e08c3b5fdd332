"""In-process tracing: spans around biphole's public functions.

``install`` replaces each public function of the traced modules with a
wrapper, under the name it has in every module that imports it, so calls
made through ``cycles.bipartite_hole_number`` and through
``paths.bipartite_hole_number`` are told apart.  Nothing under ``src/`` is
edited; ``uninstall`` puts every original back.

Each call is a span (name, start, end, parent).  Spans are kept in memory,
up to ``SPAN_CAP``, and written out by ``write_spans``; aggregates are kept
for every call, including those past the cap:

* per function: calls, inclusive seconds (outermost calls only, so recursion
  is not counted twice) and self seconds;
* per binding site (the module whose global the caller went through);
* per layer (module): entries from outside the layer, inclusive seconds of
  those entries, and self seconds.

Self time of a span is its duration minus the time covered by spans of
*other* layers nested inside it, so a function's calls to helpers of its own
module stay part of its self time.  A layer's self time is the sum over its
entry spans of the same quantity, which counts each instant once.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

LAYERS = (
    "holes", "cycles", "paths", "graph", "conditions",
    "oracle", "generators", "formats", "sweep", "cli",
)

# Public names whose body costs less than a span does; wrapping them would
# measure the tracer, not the program.
UNTRACED = {
    "graph": {"iter_bits", "mask_of", "all_pairs"},
}

# Graph methods traced as ``graph.<method>``; the accessors (degree,
# has_edge, neighbors, adj_mask, edges, ...) are left alone for the same
# reason as UNTRACED.
GRAPH_METHODS = (
    "distances_from", "distance", "vertices_at_distance", "is_connected",
    "cut_vertices", "is_two_connected", "add_edge", "induced_subgraph",
    "permuted", "two_disjoint_paths",
)

SPAN_CAP = 200_000

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.layer_of: list[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.name_ids = array("i")
        self.site_ids = array("i")
        self.parents = array("i")
        self.spans = 0
        # frame: [name_id, site_id, start_ns, foreign_ns, span_index]
        self._stack: list[list] = []
        self._active = defaultdict(int)
        self._layer_active = defaultdict(int)
        self.calls = defaultdict(int)
        self.items = defaultdict(int)
        self.incl_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.site_calls = defaultdict(int)
        self.site_incl_ns = defaultdict(int)
        self.site_self_ns = defaultdict(int)
        self.edge_ns = defaultdict(int)
        self.layer_calls = defaultdict(int)
        self.layer_incl_ns = defaultdict(int)
        self.layer_self_ns = defaultdict(int)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(name.split(".", 1)[0])
        return nid

    def enter(self, nid: int, sid: int) -> None:
        stack = self._stack
        index = self.spans
        self.spans += 1
        if index < SPAN_CAP:
            self.starts.append(0)
            self.ends.append(0)
            self.name_ids.append(nid)
            self.site_ids.append(sid)
            self.parents.append(stack[-1][4] if stack else -1)
        else:
            index = -2
        self._active[nid] += 1
        layer = self.layer_of[nid]
        self._layer_active[layer] += 1
        frame = [nid, sid, 0, 0, index]
        stack.append(frame)
        frame[2] = _clock()

    def exit(self, item: bool = False) -> None:
        end = _clock()
        stack = self._stack
        nid, sid, start, foreign, index = stack.pop()
        dur = end - start
        if index >= 0:
            self.starts[index] = start
            self.ends[index] = end
        layer = self.layer_of[nid]
        own = dur - foreign
        self.calls[nid] += 1
        if item:
            self.items[nid] += 1
        self.self_ns[nid] += own
        key = (sid, nid)
        self.site_calls[key] += 1
        self.site_self_ns[key] += own
        self._active[nid] -= 1
        if not self._active[nid]:
            self.incl_ns[nid] += dur
        # Site inclusive time counts outermost calls of the function only.
        if not self._active[nid] or sid != nid:
            self.site_incl_ns[key] += dur
        self._layer_active[layer] -= 1
        parent = stack[-1] if stack else None
        if parent is not None:
            self.edge_ns[(parent[0], nid)] += dur
        if parent is None or self.layer_of[parent[0]] != layer:
            self.layer_calls[layer] += 1
            self.layer_self_ns[layer] += own
            if not self._layer_active[layer]:
                self.layer_incl_ns[layer] += dur
            if parent is not None:
                parent[3] += dur
        else:
            parent[3] += foreign

    # -- reading results ------------------------------------------------

    def function(self, name: str) -> dict:
        nid = self._ids.get(name)
        if nid is None:
            return {"calls": 0, "items": 0, "s": 0.0, "self_s": 0.0}
        return {
            "calls": self.calls[nid],
            "items": self.items[nid],
            "s": self.incl_ns[nid] / 1e9,
            "self_s": self.self_ns[nid] / 1e9,
        }

    def site(self, site: str, name: str) -> dict:
        sid, nid = self._ids.get(site), self._ids.get(name)
        key = (sid, nid)
        return {
            "calls": self.site_calls.get(key, 0),
            "s": self.site_incl_ns.get(key, 0) / 1e9,
            "self_s": self.site_self_ns.get(key, 0) / 1e9,
        }

    def layer(self, layer: str) -> dict:
        return {
            "calls": self.layer_calls.get(layer, 0),
            "s": self.layer_incl_ns.get(layer, 0) / 1e9,
            "self_s": self.layer_self_ns.get(layer, 0) / 1e9,
        }

    def summary(self) -> dict:
        """Every aggregate, keyed by readable names, for the summary file."""
        n = self.names
        return {
            "spans": self.spans,
            "spans_kept": min(self.spans, SPAN_CAP),
            "functions": {n[i]: self.function(n[i]) for i in range(len(n)) if self.calls.get(i)},
            "sites": {
                f"{n[s]}->{n[f]}": {
                    "calls": c,
                    "s": self.site_incl_ns[(s, f)] / 1e9,
                    "self_s": self.site_self_ns[(s, f)] / 1e9,
                }
                for (s, f), c in sorted(self.site_calls.items())
            },
            "edges": {f"{n[p]}->{n[c]}": ns / 1e9 for (p, c), ns in sorted(self.edge_ns.items())},
            "layers": {layer: self.layer(layer) for layer in LAYERS},
        }

    def write_spans(self, path: str) -> None:
        """Tab-separated spans: index, parent, name, site, start_ns, end_ns."""
        kept = min(self.spans, SPAN_CAP)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# spans={self.spans} kept={kept}\n")
            fh.write("index\tparent\tname\tsite\tstart_ns\tend_ns\n")
            names, t0 = self.names, (self.starts[0] if kept else 0)
            for i in range(kept):
                fh.write(
                    f"{i}\t{self.parents[i]}\t{names[self.name_ids[i]]}\t"
                    f"{names[self.site_ids[i]]}\t{self.starts[i] - t0}\t{self.ends[i] - t0}\n"
                )


def _wrap(tracer: Tracer, fn, name: str, site: str):
    nid = tracer.name_id(name)
    sid = tracer.name_id(site)
    enter, exit_ = tracer.enter, tracer.exit
    if inspect.isgeneratorfunction(fn):
        # One span per step, so the time spent producing each item is
        # charged to the generator and not to its consumer.
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                enter(nid, sid)
                try:
                    item = next(it)
                except StopIteration:
                    exit_()
                    return
                except BaseException:
                    exit_()
                    raise
                exit_(True)
                yield item

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        enter(nid, sid)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_()

    return wrapper


def install(tracer: Tracer, package) -> list:
    """Wrap every traced function of ``package`` (the imported biphole);
    returns the undo list for ``uninstall``."""
    undo = []
    modules = {name: sys.modules[f"{package.__name__}.{name}"] for name in LAYERS}
    originals = {}
    for layer, mod in modules.items():
        skip = UNTRACED.get(layer, set())
        for attr, value in vars(mod).items():
            if (
                inspect.isfunction(value)
                and value.__module__ == mod.__name__
                and not attr.startswith("_")
                and attr not in skip
            ):
                originals[value] = f"{layer}.{attr}"
    for site, mod in dict(modules, biphole=package).items():
        for attr, value in list(vars(mod).items()):
            name = originals.get(value) if inspect.isfunction(value) else None
            if name is not None:
                binding = name if name.startswith(f"{site}.") else f"{site}.{attr}"
                setattr(mod, attr, _wrap(tracer, value, name, binding))
                undo.append((mod, attr, value))
    graph_cls = modules["graph"].Graph
    for meth in GRAPH_METHODS:
        fn = graph_cls.__dict__[meth]
        setattr(graph_cls, meth, _wrap(tracer, fn, f"graph.{meth}", f"graph.{meth}"))
        undo.append((graph_cls, meth, fn))
    props = modules["sweep"].PROPERTIES
    for prop, fn in list(props.items()):
        props[prop] = _wrap(tracer, fn, f"sweep.prop.{prop}", f"sweep.prop.{prop}")
        undo.append((props, prop, fn))
    return undo


def uninstall(undo: list) -> None:
    for owner, key, value in reversed(undo):
        if isinstance(owner, dict):
            owner[key] = value
        else:
            setattr(owner, key, value)
