"""Layer-by-layer tracing of the library, from outside it.

The traced run rebinds the library's public functions to wrappers, in
every module that holds them by name (``verify`` and ``dendriform``
import ``circle_lc`` and friends directly), and restores them afterwards.
Two kinds of wrapper exist:

* a *span* records name, start, end and the enclosing span's id in
  memory; a layer's self time is the span's duration minus the time its
  child spans cover (`self_times`);
* a *counted* call only adds to a call count and a self-time total.  The
  arithmetic layers (`LambdaPoly`, `LinComb`) and the small per-term
  helpers (`graft`, `beta`) run millions of times in one workload, so
  they are counted rather than spanned to keep the overhead bounded.

Time spent in counted calls is charged to them and not to the span
around them, so span and counted self times together cover the run
without overlap.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from time import perf_counter
from types import ModuleType
from typing import Callable, Iterable, Sequence

# Public functions traced as spans: module -> {function: layer}.
SPANS = {
    "scalars": {"parse_poly": "scalars.parse"},
    "trees": {
        "enumerate_trees": "trees.enumerate",
        "enumerate_zero_root": "trees.enumerate",
        "enumerate_positive_root": "trees.enumerate",
        "count_trees": "trees.enumerate",
        "planar_trees": "trees.enumerate",
        "binary_trees": "trees.enumerate",
        "parse_tree": "trees.parse",
        "parse_planar": "trees.parse",
        "render_tree": "trees.render",
        "render_planar": "trees.render",
    },
    "baxter_core": {
        "circle": "baxter_core.circle",
        "star": "baxter_core.star",
        "parse_lincomb": "baxter_core.parse",
    },
    "paths": {
        "parse_path": "paths.parse",
        "encode_positive": "paths.encode",
        "encode_zero": "paths.encode",
        "strip_angles": "paths.encode",
        "tree_to_path": "paths.encode",
        "to_colored_motzkin": "paths.encode",
        "decode_positive": "paths.decode",
        "decode_zero": "paths.decode",
        "restore_angles": "paths.decode",
        "path_to_tree": "paths.decode",
        "from_colored_motzkin": "paths.decode",
    },
    "counting": {
        "series_coeffs": "counting.series",
        "monomial_series": "counting.series",
        "dim_formula": "counting.dim",
        "monomial_dims": "counting.dim",
    },
    "monomial": {
        "pi_map": "monomial.pi",
        "pi_word": "monomial.pi",
        "pi_word_recursive": "monomial.pi",
        "parse_word": "monomial.parse",
    },
    "dendriform": {
        "dend_op": "dendriform.dend_op",
        "rb_dendriform": "dendriform.rb",
    },
    "verify": {"run_suite": "verify.suite"},
    "cli": {"build_parser": "cli.build_parser", "main": "cli.main"},
}

# Public functions traced as counted calls.
COUNTED = {"baxter_core": {"graft": "baxter_core.graft", "beta": "baxter_core.beta"}}

# Methods traced as counted calls: class -> {method: layer}.
SCALAR_METHODS = {
    "__init__": "scalars.other", "_coerce": "scalars.other",
    "__add__": "scalars.add", "__radd__": "scalars.add",
    "__sub__": "scalars.other", "__rsub__": "scalars.other",
    "__neg__": "scalars.other", "__mul__": "scalars.mul",
    "__rmul__": "scalars.mul", "__pow__": "scalars.other",
    "__eq__": "scalars.other", "eval_at": "scalars.other",
}
LINCOMB_METHODS = {
    "__init__": "baxter_core.lincomb.other",
    "__add__": "baxter_core.lincomb.add",
    "__sub__": "baxter_core.lincomb.other",
    "__neg__": "baxter_core.lincomb.other",
    "scale": "baxter_core.lincomb.scale",
    "__mul__": "baxter_core.lincomb.scale",
    "__rmul__": "baxter_core.lincomb.scale",
    "apply": "baxter_core.lincomb.other",
    "map_coeffs": "baxter_core.lincomb.other",
    "eval_weight": "baxter_core.lincomb.other",
    "items": "baxter_core.lincomb.other",
    "support": "baxter_core.lincomb.other",
    "__eq__": "baxter_core.lincomb.other",
}


class Tracer:
    """Spans and counted calls of one traced run, kept in memory.

    Each open call has a frame ``[covered, spans_below, span_id,
    is_span]``.  For a counted frame, ``covered`` is the time of the calls
    directly inside it and ``spans_below`` the part of that taken by
    spans.  For a span frame, ``covered`` is the time of counted calls
    inside it, net of spans nested in those; its child spans are found
    afterwards through their parent ids.
    """

    def __init__(self, clock: Callable[[], float] = perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("I")
        self.start = array("d")
        self.end = array("d")
        self.counted_inside = array("d")
        self.counted_calls: dict[str, int] = defaultdict(int)
        self.counted_self: dict[str, float] = defaultdict(float)
        self.stats: dict[str, int] = defaultdict(int)
        self._stack: list[list] = [[0.0, 0.0, -1, True]]

    def _name_id(self, layer: str) -> int:
        if layer not in self._name_ids:
            self._name_ids[layer] = len(self.names)
            self.names.append(layer)
        return self._name_ids[layer]

    def span(self, layer: str, fn: Callable) -> Callable:
        nid = self._name_id(layer)
        clock, stack = self.clock, self._stack
        parents, names, starts, ends, inside = (
            self.parent, self.name, self.start, self.end, self.counted_inside)

        def traced(*args, **kwargs):
            up = stack[-1]
            sid = len(starts)
            parents.append(up[2])
            names.append(nid)
            starts.append(0.0)
            ends.append(0.0)
            inside.append(0.0)
            frame = [0.0, 0.0, sid, True]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
                inside[sid] = frame[0]
                if not up[3]:
                    up[0] += t1 - t0
                    up[1] += t1 - t0

        return traced

    def counted(self, layer: str, fn: Callable) -> Callable:
        clock, stack = self.clock, self._stack
        calls, selfs = self.counted_calls, self.counted_self

        def traced(*args, **kwargs):
            up = stack[-1]
            frame = [0.0, 0.0, up[2], False]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                calls[layer] += 1
                selfs[layer] += dt - frame[0]
                if up[3]:
                    up[0] += dt - frame[1]
                else:
                    up[0] += dt
                    up[1] += frame[1]

        return traced

    def span_summary(self) -> dict[str, tuple[int, float]]:
        """Calls and self seconds per span layer."""
        own = self_times(self.parent, self.start, self.end, self.counted_inside)
        out: dict[str, list] = {}
        for nid, s in zip(self.name, own):
            acc = out.setdefault(self.names[nid], [0, 0.0])
            acc[0] += 1
            acc[1] += s
        return {k: (v[0], v[1]) for k, v in out.items()}


def self_times(parent: Sequence[int], start: Sequence[float],
               end: Sequence[float], counted_inside: Sequence[float]) -> list[float]:
    """Self time of each span: its duration minus the durations of its
    child spans and the counted time directly inside it.  ``parent[i]``
    is the index of span i's parent, or -1 for a root."""
    own = [e - s - c for s, e, c in zip(start, end, counted_inside)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


class Patches:
    """Rebindings of names in modules and classes, undone by `restore`."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        for owner, name, old in reversed(self._undo):
            setattr(owner, name, old)
        self._undo.clear()


def rebind_everywhere(patches: Patches, modules: Iterable[ModuleType],
                      original: object, replacement: object) -> None:
    """Point every module-level name bound to ``original`` at ``replacement``."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                patches.set(mod, attr, replacement)


def install(tracer: Tracer, lib) -> Patches:
    """Wrap the traced functions and methods of the library ``lib``."""
    patches = Patches()
    modules = lib.modules()
    for table, wrap in ((SPANS, tracer.span), (COUNTED, tracer.counted)):
        for modname, funcs in table.items():
            mod = getattr(lib, modname)
            for fname, layer in funcs.items():
                original = getattr(mod, fname)
                rebind_everywhere(patches, modules, original, wrap(layer, original))
    _wrap_methods(patches, tracer, lib.scalars.LambdaPoly, SCALAR_METHODS)
    lincomb = lib.baxter_core.LinComb
    _wrap_methods(patches, tracer, lincomb, LINCOMB_METHODS,
                  {"__add__": _merge_counter(tracer, lincomb)})
    return patches


def _merge_counter(tracer: Tracer, lincomb: type) -> Callable:
    """Wrap ``LinComb.__add__`` to count the terms it copies from the
    left operand and the terms it merges in from the right one."""
    stats = tracer.stats

    def measure(add: Callable) -> Callable:
        def add_terms(a, b):
            if isinstance(b, lincomb):
                stats["terms_copied"] += len(a.terms)
                stats["terms_merged"] += len(b.terms)
            return add(a, b)
        return add_terms

    return measure


def _wrap_methods(patches: Patches, tracer: Tracer, cls: type,
                  methods: dict[str, str], extra: dict | None = None) -> None:
    for name, layer in methods.items():
        raw = vars(cls)[name]
        if isinstance(raw, staticmethod):
            patches.set(cls, name, staticmethod(tracer.counted(layer, raw.__func__)))
            continue
        fn = raw
        if extra and name in extra:
            fn = extra[name](fn)
        patches.set(cls, name, tracer.counted(layer, fn))
