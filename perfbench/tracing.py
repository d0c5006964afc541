"""In-memory spans around the zeroone package's public entry points.

A :class:`Tracer` replaces a module attribute (``zeroone.admm.solve``,
``zeroone.cli.gram_matrix``, ...) with a wrapper that records one span per
call, and puts the original back on :meth:`Tracer.uninstall`.  Callers look
these names up at call time, so the wrappers see every call the package
makes through them, including calls made from the ``cli`` thread pool.
Nothing under ``src/`` is edited.

A span is a dict with ``id``, ``name`` (``<layer>.<function>``), ``parent``,
``op`` (the operation it belongs to, e.g. ``op-3``), ``phase``, ``thread``,
``start`` and ``end`` (seconds from the tracer's creation) plus whatever the
entry point's describer extracts (iterations, rows, ...).  Each thread keeps
its own parent stack; a pool thread whose stack is empty takes the main
thread's innermost open span as parent.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.op = "setup-1"
        self.phase = "setup"
        self._t0 = time.perf_counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patched: list[tuple[object, str, object]] = []

    @property
    def active(self) -> bool:
        """True while the entry points are wrapped."""
        return bool(self._patched)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            sid = next(self._ids)
        rec = {"id": sid, "name": name, "parent": parent, "op": self.op,
               "phase": self.phase, "thread": threading.get_ident(), **attrs}
        stack.append(sid)
        rec["start"] = time.perf_counter() - self._t0
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._t0
            stack.pop()
            with self._lock:
                self.spans.append(rec)

    def wrap(self, name: str, fn, describe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if describe is not None:
                    rec.update(describe(args, kwargs, out))
                return out
        return traced

    def install(self, targets):
        """Wrap each ``(module, attribute, span name, describer)`` target."""
        for module, attr, name, describe in targets:
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, describe))

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _rows(X) -> int:
    return int(np.atleast_2d(np.asarray(X)).shape[0])


def entry_points(Z):
    """The wrapped entry points, each at the namespace its callers use.

    ``Z`` is a namespace holding the zeroone modules (``Z.cli``,
    ``Z.admm``, ...).
    """
    def solved(args, kwargs, out):
        trace = out[1]
        return {"iters": trace.iterations, "termination": trace.termination}

    def baseline(args, kwargs, out):
        kind = Z.baselines.LossKind(_arg(args, kwargs, 2, "kind")).value
        return {"kind": kind, **solved(args, kwargs, out)}

    def predicted(args, kwargs, out):
        return {"rows": _rows(_arg(args, kwargs, 1, "X")),
                "form": _arg(args, kwargs, 2, "form", "primal")}

    def crossed(args, kwargs, out):
        return {"rows": _rows(_arg(args, kwargs, 1, "X"))}

    def gram(args, kwargs, out):
        return {"m": out.m}

    def dumped(args, kwargs, out):
        return {"bytes": len(out)}

    from_solution = "model.from_solution"
    return [
        (Z.cli, "prepare_splits", "cli.prepare_splits", None),
        (Z.cli, "bench_rows", "cli.bench_rows", None),
        (Z.cli, "gram_matrix", "kernels.gram_matrix", gram),
        (Z.data, "gen_double_circles", "data.gen_double_circles", None),
        (Z.data, "gen_double_moons", "data.gen_double_moons", None),
        (Z.data, "flip_labels", "data.flip_labels", None),
        (Z.data, "split", "data.split", None),
        (Z.data, "standardize", "data.standardize", None),
        (Z.kernels, "gram_matrix", "kernels.gram_matrix", gram),
        (Z.model, "cross_matrix", "kernels.cross_matrix", crossed),
        (Z.admm, "solve", "admm.solve", solved),
        (Z.admm, "update_c", "admm.update_c", None),
        (Z.baselines, "solve_baseline", "baselines.solve_baseline", baseline),
        (Z.baselines, "from_solution", from_solution, None),
        (Z.model, "from_solution", from_solution, None),
        (Z.model, "predict", "model.predict", predicted),
        (Z.model, "to_json", "model.to_json", dumped),
        (Z.model, "from_json", "model.from_json", None),
        (Z.stationarity, "check_kkt", "stationarity.check_kkt", None),
        (Z.stationarity, "check_prox_stationary",
         "stationarity.check_prox_stationary", None),
        (Z.stationarity, "equivalence_roundtrip",
         "stationarity.equivalence_roundtrip", None),
    ]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time per layer: each span's duration minus the part of
    its interval that the union of its children covers."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    totals: dict[str, float] = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        kids = sorted((max(c["start"], s["start"]), min(c["end"], s["end"]))
                      for c in children.get(s["id"], ()))
        for lo, hi in kids:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        layer = s["name"].split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + (s["end"] - s["start"] - covered)
    return totals
