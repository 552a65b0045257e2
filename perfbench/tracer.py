"""Spans around the library's public functions, installed from outside.

``Tracer.install()`` wraps every public function, every public method and
the operator methods of the value classes in the six layer modules of
``hopfwords``, plus ``freealg._canonical``. A module-level function is
rebound in every ``hopfwords`` namespace that holds it, because ``cli``,
``rep``, ``sweedler``, ``dualforms`` and the package itself bind these names
with ``from ... import``; a wrapper on the defining module alone would miss
those calls. Methods are replaced on their class. ``uninstall()`` puts the
originals back.

Each call records a span (name, start, end, parent span, job) in flat
arrays. A span's self time is its duration minus the time covered by its
child spans; a layer's self time is the sum over its spans, so the layers'
self times plus the time outside any span add up to the traced wall time.

Small accessors and the word/letter/alphabet value types are not wrapped:
they run millions of times and would turn the trace into a measurement of
the tracer. ``Word`` construction is counted instead.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from time import perf_counter

LAYERS = ("freealg", "linalg", "rep", "dualforms", "sweedler", "cli")

_PRIVATE_TARGETS = {"freealg": ("_canonical",)}
_OPERATORS = {"__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__eq__", "__str__"}
_SKIP_CLASSES = {"Letter", "LetterKind", "Alphabet", "Word", "HankelSlice"}
_SKIP_METHODS = {"row", "col", "scalar", "matrix"}

# inclusive-time metrics: outermost spans of any name in the group
TIME_GROUPS = {
    "freealg.coproduct_s": ("freealg.coproduct", "freealg.coproduct_word"),
    "freealg.coassoc_s": ("freealg.coassoc_lhs", "freealg.coassoc_rhs"),
    "freealg.ncpoly_add_s": ("freealg.NCPoly.__add__", "freealg.NCPoly.__sub__"),
    "freealg.canonical_s": ("freealg._canonical",),
    "linalg.matmul_s": ("linalg.Matrix.__mul__", "linalg.Matrix.__rmul__"),
    "linalg.kron_s": ("linalg.Matrix.kron",),
    "linalg.rank_s": ("linalg.rank",),
    "linalg.reducer_s": ("linalg.RowReducer.offer", "linalg.RowReducer.coordinates"),
    "rep.eval_word_s": ("rep.eval_word",),
    "rep.tensor_rep_s": ("rep.tensor_rep",),
    "rep.pairing_check_s": ("rep.pairing_invariance_check",),
    "dualforms.convolve_s": ("dualforms.convolve",),
    "sweedler.hankel_s": ("sweedler.hankel",),
    "sweedler.learn_s": ("sweedler.learn",),
    "sweedler.reps_equal_s": ("sweedler.reps_equal",),
    "sweedler.conv_rep_s": ("sweedler.conv_rep",),
}
# call counts: number of spans with any name in the group
CALL_GROUPS = {
    "linalg.matmul_calls": ("linalg.Matrix.__mul__", "linalg.Matrix.__rmul__"),
    "linalg.rank_calls": ("linalg.rank",),
    "dualforms.coeff_calls": (
        "dualforms.FiniteSupportSeries.coeff",
        "dualforms.RecognizableSeries.coeff",
    ),
    "sweedler.value_calls": ("sweedler.LinRep.value",),
}
# exact counters fed by result hooks (see _hook_for)
COUNTERS = (
    "freealg.terms_out",
    "freealg.word_new",
    "linalg.max_bits",
    "dualforms.convolve_terms_out",
    "sweedler.hankel_entries",
    "sweedler.behavior_table_words",
)


def _max_bits(values) -> int:
    best = 0
    for x in values:
        b = max(x.numerator.bit_length(), x.denominator.bit_length())
        if b > best:
            best = b
    return best


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.job = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.current_job = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- installation -------------------------------------------------------

    def _targets(self):
        """(owner, attribute, span name, function, wrap as) for every traced
        callable; ``owner`` is a module or a class."""
        out = []
        for layer in LAYERS:
            mod = sys.modules[f"hopfwords.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if attr.startswith("_") and attr not in _PRIVATE_TARGETS.get(layer, ()):
                        continue
                    if not inspect.isgeneratorfunction(obj):
                        out.append((mod, attr, f"{layer}.{attr}", obj, None))
                elif inspect.isclass(obj) and attr not in _SKIP_CLASSES and not issubclass(obj, BaseException):
                    for mname, m in list(vars(obj).items()):
                        if mname in _SKIP_METHODS or (mname.startswith("_") and mname not in _OPERATORS):
                            continue
                        kind = type(m) if isinstance(m, (classmethod, staticmethod)) else None
                        fn = m.__func__ if kind else m
                        if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
                            out.append((obj, mname, f"{layer}.{attr}.{mname}", fn, kind))
        return out

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        from hopfwords.freealg import Word

        wrapped_functions = {}
        for owner, attr, span_name, fn, kind in self._targets():
            wrapper = self._wrap(fn, span_name)
            if isinstance(owner, type):
                self._undo.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, kind(wrapper) if kind else wrapper)
            else:
                wrapped_functions[id(fn)] = (fn, wrapper)
        # rebind module-level functions wherever they are bound
        for modname, mod in list(sys.modules.items()):
            if modname != "hopfwords" and not modname.startswith("hopfwords."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped_functions.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        init = Word.__init__
        counters = self.counters

        def counting_init(self_, *args, **kwargs):
            counters["freealg.word_new"] += 1
            init(self_, *args, **kwargs)

        self._undo.append((Word, "__init__", init))
        Word.__init__ = counting_init

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _hook_for(self, span_name: str):
        layer = span_name.split(".", 1)[0]
        counters = self.counters
        if layer == "freealg":
            from hopfwords.freealg import NCPoly, Tensor2, Tensor3

            containers = (NCPoly, Tensor2, Tensor3)

            def hook(res):
                if isinstance(res, containers):
                    counters["freealg.terms_out"] += len(res.terms)

            return hook
        if layer == "linalg":
            from hopfwords.linalg import Matrix

            def hook(res):
                if isinstance(res, Matrix):
                    bits = max(_max_bits(r) for r in res.rows)
                elif isinstance(res, list) and res and not isinstance(res[0], list):
                    bits = _max_bits(res)
                else:
                    return
                if bits > counters["linalg.max_bits"]:
                    counters["linalg.max_bits"] = bits

            return hook
        if span_name == "dualforms.convolve":
            from hopfwords.dualforms import FiniteSupportSeries

            def hook(res):
                if isinstance(res, FiniteSupportSeries):
                    counters["dualforms.convolve_terms_out"] += len(res.terms)

            return hook
        if span_name == "sweedler.hankel":
            def hook(res):
                counters["sweedler.hankel_entries"] += len(res.rows) * len(res.cols)

            return hook
        if span_name == "sweedler.behavior_table":
            def hook(res):
                counters["sweedler.behavior_table_words"] += len(res)

            return hook
        return None

    def _wrap(self, fn, span_name: str):
        name_id = self._name_ids.setdefault(span_name, len(self.names))
        if name_id == len(self.names):
            self.names.append(span_name)
        hook = self._hook_for(span_name)
        stack = self._stack
        names, parents, jobs, starts, ends = self.name, self.parent, self.job, self.start, self.end
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            jobs.append(tracer.current_job)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None:
                hook(res)
            return res

        return functools.update_wrapper(wrapper, fn)

    # -- results ------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.name)

    def metrics(self, wall_s: float) -> dict:
        """Per-layer self times, group times and counts, and the benchmark's
        own share of the traced wall time."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        top_level = 0.0
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
            else:
                top_level += dur[i]
        layer_of = [s.split(".", 1)[0] for s in self.names]
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        out["freealg.calls"] = 0
        for i in range(n):
            layer = layer_of[self.name[i]]
            out[f"{layer}.self_s"] += dur[i] - covered[i]
            if layer == "freealg":
                out["freealg.calls"] += 1

        by_name: dict[int, list[int]] = {}
        for i in range(n):
            by_name.setdefault(self.name[i], []).append(i)

        def spans_of(group):
            ids = {self._name_ids[s] for s in group if s in self._name_ids}
            return ids, [i for name_id in ids for i in by_name.get(name_id, ())]

        for metric, group in TIME_GROUPS.items():
            ids, spans = spans_of(group)
            out[metric] = sum(dur[i] for i in spans if not self._has_ancestor_in(i, ids))
        for metric, group in CALL_GROUPS.items():
            out[metric] = len(spans_of(group)[1])
        out.update(self.counters)
        out["bench.self_s"] = wall_s - top_level
        out["trace.wall_s"] = wall_s
        return out

    def _has_ancestor_in(self, i: int, ids) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.name[p] in ids:
                return True
            p = self.parent[p]
        return False

    def write(self, path, origin: float):
        """Write the spans as columns; times are seconds since ``origin``."""
        data = {
            "names": self.names,
            "name": list(self.name),
            "parent": list(self.parent),
            "job": list(self.job),
            "start": [round(t - origin, 7) for t in self.start],
            "end": [round(t - origin, 7) for t in self.end],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))
