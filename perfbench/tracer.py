"""Outside-in span tracer for the qmeasure layers.

`Tracer.install()` wraps, in each `qmeasure.<layer>` module, every public
function and every validating `__post_init__` of a class defined there, and
rebinds every attribute of every qmeasure module that refers to a wrapped
function, because `from .x import y` copies the binding. Calls made through
references stored elsewhere (the tuple `verification.ALL_CHECKS`, say) are
not seen: their time counts toward the caller. A layer that does not exist
is skipped and listed in `missing`. `uninstall()` puts the originals back.
Nothing is patched until `install()` runs.

A span is (op id, span id, parent span id, name id, start ns, end ns), kept
in memory and written out by `write_spans`. A span's self time is its
duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "qmeasure"
LAYERS = (
    "cli", "scenario", "measurement", "states", "observables",
    "algebra", "linalg", "report", "verification", "randomness",
)
VALIDATING_LAYERS = ("states", "observables", "algebra", "measurement", "report")
HOT_FUNCTIONS = (
    "measurement.build_coupling",
    "measurement.premeasure",
    "measurement.premeasure_density",
    "states.partial_trace",
    "algebra.generate_algebra",
    "algebra.restrict_state",
    "observables.joint_eigenblocks",
    "observables.spectral_decomposition",
    "linalg.hermitian_eigendecompose",
    "scenario.parse_scenario",
    "report.emit_report",
)
VALIDATOR = "__post_init__"
NO_PARENT = -1


def metric_names() -> list[str]:
    """Every per-layer metric `summarize` reports, in a fixed order."""
    names = []
    for layer in LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_ms"]
    names += [f"{layer}.validate_ms" for layer in VALIDATING_LAYERS]
    names += [f"{name}.ms" for name in HOT_FUNCTIONS]
    return names


class Tracer:
    def __init__(self, layers=LAYERS):
        self.layers = tuple(layers)
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.missing: list[str] = []
        self.op = 0
        self._current = NO_PARENT
        self._next_id = 0
        self._patches: list[tuple[object, str, object, object]] | None = None

    # ------------------------------------------------------------ patching

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        spans = self.spans
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._current
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            tracer._current = span_id
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._current = parent
                spans.append((tracer.op, span_id, parent, name_id, start, end))

        return traced

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every binding to patch."""
        plan = []
        wrapped: dict[int, tuple[object, object]] = {}
        for layer in self.layers:
            module_name = f"{PACKAGE}.{layer}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(module_name)
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module_name:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
                elif inspect.isclass(obj) and VALIDATOR in vars(obj):
                    fn = vars(obj)[VALIDATOR]
                    wrapper = self._wrap(fn, f"{layer}.{attr}.{VALIDATOR}")
                    plan.append((obj, VALIDATOR, fn, wrapper))
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == PACKAGE or module_name.startswith(PACKAGE + ".")
            ):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    plan.append((module, attr, obj, entry[1]))
        known = set(self.names)
        self.missing += [name for name in HOT_FUNCTIONS if name not in known]
        return plan

    def install(self) -> None:
        """Patch in the wrappers; they are built on the first call only, so
        install and uninstall may alternate."""
        if self._patches is None:
            self._patches = self._plan()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches or ()):
            setattr(owner, attr, original)

    # ------------------------------------------------------------ analysis

    def summarize(self, n_ops: int) -> dict[str, float]:
        """Per-op means over `n_ops` ops: calls and self time per layer,
        inclusive time of each layer's validators and of each hot function,
        and `root_ms`, the time inside outermost spans."""
        layer_of = [name.split(".", 1)[0] for name in self.names]
        hot = set(HOT_FUNCTIONS)
        child_ns: dict[int, int] = defaultdict(int)
        parent_and_name: dict[int, tuple[int, int]] = {}
        for _, span_id, parent, name_id, start, end in self.spans:
            child_ns[parent] += end - start
            parent_and_name[span_id] = (parent, name_id)

        # inclusive time counts a span only when no ancestor has the same key,
        # so nested calls of one function or one layer's validators count once
        def key(name_id: int) -> str | None:
            name = self.names[name_id]
            if name.endswith(VALIDATOR):
                return f"{layer_of[name_id]}.validate_ms"
            if name in hot:
                return f"{name}.ms"
            return None

        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        inclusive_ns: dict[str, int] = defaultdict(int)
        for _, span_id, parent, name_id, start, end in self.spans:
            layer = layer_of[name_id]
            calls[layer] += 1
            self_ns[layer] += end - start - child_ns[span_id]
            k = key(name_id)
            if k is None:
                continue
            ancestor = parent
            while ancestor != NO_PARENT:
                ancestor, ancestor_name = parent_and_name[ancestor]
                if key(ancestor_name) == k:
                    break
            else:
                inclusive_ns[k] += end - start

        per_op = 1.0 / max(n_ops, 1)
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer] * per_op
            out[f"{layer}.self_ms"] = self_ns[layer] * per_op / 1e6
        for name in metric_names():
            if name.endswith("validate_ms") or name.endswith(".ms"):
                out[name] = inclusive_ns[name] * per_op / 1e6
        out["root_ms"] = child_ns[NO_PARENT] * per_op / 1e6
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,span,parent,name,start_ns,end_ns\n")
            for op, span_id, parent, name_id, start, end in self.spans:
                fh.write(f"{op},{span_id},{parent},{self.names[name_id]},{start},{end}\n")
