"""Outside-in tracer: spans and counts for the six cylzeta modules.

Nothing under ``src/`` knows about it.  :meth:`Tracer.install` wraps each
public function of a layer module, found by object identity, in every
``cylzeta`` namespace that binds it (the package re-exports with
``from .spectral_models import zeta_sq``, so patching only the defining
module would miss the callers), and counts the yields of
``TangentialModel.modes`` and the calls of ``RootSequence.from_json``.
:meth:`Tracer.uninstall` puts the original objects back.

A span covers one call into a wrapped function and records its name,
start, end, parent span and op id; spans stay in memory until
:meth:`Tracer.write_spans`.  Wrappers return exactly what the wrapped
call returns and re-raise what it raises.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("spectral_models", "mode_problems", "cylinder_dets", "gluing", "asymptotics", "cli")

_HURWITZ = ("hurwitz_zeta", "hurwitz_zeta_sderiv", "hurwitz_zeta_zero_deriv")
_INVARIANTS = ("zeta_sq", "zeta_abs", "zeta_sq_deriv0")

# span record fields
_LAYER, _NAME, _START, _END, _PARENT, _OP, _CHILD, _MODES = range(8)


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


def _useful_modes(model, r: float, visited: int, value: float) -> int:
    """Modes among the first ``visited`` whose term 2 m log(1 - e^(-2 lam r))
    exceeds 1e-17 (1 + |sum|), the summation's own significance level."""
    if model.kind == "explicit":
        lines = model.lines[:visited]
        lam = np.array([line.lam for line in lines])
        mult = np.array([line.mult for line in lines], dtype=float)
    else:
        n = np.arange(visited + 1, dtype=float)
        mult = sum(c * n**p for p, c in enumerate(model.mult_coeffs))
        keep = mult > 0
        lam = (model.d * (n + model.a))[keep][:visited]
        mult = mult[keep][:visited]
    with np.errstate(under="ignore"):
        terms = 2.0 * mult * np.log1p(-np.exp(-2.0 * lam * r))
    return int(np.count_nonzero(np.abs(terms) > 1e-17 * (1.0 + abs(value))))


class Tracer:
    """Installs wrappers into the loaded cylzeta modules and aggregates spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._op_errors: dict[str, list] = {}
        self._restore: list[tuple] = []
        self.errors = Counter()
        self.modes_yielded = 0
        self.gluing_modes = 0
        self.from_json_calls = 0
        self.roots_bisected = 0
        self.invariant_keys: set = set()
        self.invariant_calls = 0
        self.useful_ratios: list[float] = []

    # -- span bookkeeping ---------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._op_errors = {}

    def _enter(self, layer: str, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, name, time.perf_counter(), 0.0, parent, self._op, 0.0, 0])
        self._stack.append(sid)
        return sid

    def _exit(self, sid: int, exc: BaseException | None) -> None:
        span = self.spans[sid]
        span[_END] = time.perf_counter()
        self._stack.pop()
        if span[_PARENT] >= 0:
            self.spans[span[_PARENT]][_CHILD] += span[_END] - span[_START]
        if exc is not None:
            # count each exception once per layer it passes through
            seen = self._op_errors.setdefault(span[_LAYER], [])
            if not any(e is exc for e in seen):
                seen.append(exc)
                self.errors[span[_LAYER]] += 1

    # -- counters fed by post-call hooks -------------------------------------

    def _after(self, name: str, sid: int, args, kwargs, result) -> None:
        if name in _INVARIANTS:
            self.invariant_calls += 1
            model = args[0] if args else kwargs["model"]
            s = None if name == "zeta_sq_deriv0" else complex(args[1] if len(args) > 1 else kwargs["s"])
            # keyed per op: each CLI command is its own process for a user, so
            # only repeats within one command are there for a cache to reuse
            self.invariant_keys.add((self._op, name, model, s))
        elif name == "robin_mode_roots":
            self.roots_bisected += result.count
        elif name == "exp_correction_sum":
            model = args[0] if args else kwargs["model"]
            r = args[1] if len(args) > 1 else kwargs["r"]
            visited = self.spans[sid][_MODES]
            if visited:
                useful = _useful_modes(model, r, visited, result[0])
                self.useful_ratios.append(useful / visited)

    def _on_mode(self) -> None:
        self.modes_yielded += 1
        if self._stack:
            top = self.spans[self._stack[-1]]
            if top[_LAYER] == "gluing":
                self.gluing_modes += 1
                top[_MODES] += 1

    # -- installation ---------------------------------------------------------

    def _wrap(self, func, layer: str, name: str):
        tracer = self
        hooked = name in _INVARIANTS or name in ("robin_mode_roots", "exp_correction_sum")

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            sid = tracer._enter(layer, name)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(sid, exc)
                raise
            tracer._exit(sid, None)
            if hooked:
                tracer._after(name, sid, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        package = sys.modules["cylzeta"]
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"cylzeta.{layer}")
            for name, func in _public_functions(module):
                wrappers[id(func)] = (func, self._wrap(func, layer, name))
        namespaces = [m for key, m in sys.modules.items()
                      if key == "cylzeta" or key.startswith("cylzeta.")]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(module, attr, wrappers[id(value)][1])
                    self._restore.append((module, attr, value))

        tracer = self
        model_cls = package.spectral_models.TangentialModel
        orig_modes = model_cls.modes

        @functools.wraps(orig_modes)
        def modes(model, *args, **kwargs):
            for item in orig_modes(model, *args, **kwargs):
                tracer._on_mode()
                yield item

        roots_cls = package.mode_problems.RootSequence
        orig_from_json = roots_cls.__dict__["from_json"]

        def from_json(cls, text):
            tracer.from_json_calls += 1
            return orig_from_json.__func__(cls, text)

        model_cls.modes = modes
        roots_cls.from_json = classmethod(from_json)
        self._restore.append((model_cls, "modes", orig_modes))
        self._restore.append((roots_cls, "from_json", orig_from_json))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results ----------------------------------------------------------------

    def write_spans(self, path) -> None:
        """One JSON array per line: id, name, start, end, parent, op id."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, s in enumerate(self.spans):
                fh.write(json.dumps([sid, f"{s[_LAYER]}.{s[_NAME]}", s[_START], s[_END],
                                     s[_PARENT], s[_OP]]) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer figures: self time, calls, errors and the layer counters.

        ``gluing.sum_useful_ratio`` is the mean over ``exp_correction_sum``
        calls of their useful-mode share; ``errors`` counts each exception
        once per layer it passes through.
        """
        self_s = Counter()
        calls = Counter()
        names = Counter()
        for s in self.spans:
            self_s[s[_LAYER]] += (s[_END] - s[_START]) - s[_CHILD]
            calls[s[_LAYER]] += 1
            names[s[_NAME]] += 1
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (float(self_s[layer]), "s")
            out[f"{layer}.calls"] = (calls[layer], "count")
            out[f"{layer}.errors"] = (self.errors[layer], "count")
        ratios = self.useful_ratios
        root_route = self.from_json_calls + names["robin_mode_roots"]
        out.update({
            "gluing.modes_visited": (self.gluing_modes, "count"),
            "gluing.sum_useful_ratio": (math.fsum(ratios) / len(ratios) if ratios else 0.0, "ratio"),
            "spectral_models.modes_yielded": (self.modes_yielded, "count"),
            "spectral_models.hurwitz_calls": (sum(names[n] for n in _HURWITZ), "count"),
            "spectral_models.invariant_calls": (self.invariant_calls, "count"),
            "spectral_models.invariant_distinct_ratio": (
                len(self.invariant_keys) / self.invariant_calls if self.invariant_calls else 0.0,
                "ratio"),
            "asymptotics.samples": (names["shifted_robin_logdet"], "count"),
            "mode_problems.roots_bisected": (self.roots_bisected, "count"),
            "cli.root_cache_hit_ratio": (
                self.from_json_calls / root_route if root_route else 0.0, "ratio"),
        })
        return out
