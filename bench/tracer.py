"""Spans around calls into the wsdirac layers, installed from outside src/.

`from .x import f` copies the name into the importing module, so a wrapper
bound only in the defining module would miss every caller that imported it.
Each target is therefore rebound in every wsdirac module whose attribute is
the original function (or only in the listed caller modules), and restored
afterwards.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np

# (defining module, function, caller modules to rebind in; None = all)
TARGETS = (
    ("params", "derive_coefficients", None),
    ("susyqm", "slope_parameter", None),
    # only the oracle's calls: its radial coefficient evaluates the shape
    ("pekeris", "shape_factor", ("oracle",)),
    ("spectrum", "solve_energy", None),
    ("spectrum", "sweep", None),
    ("spectrum", "ground_state_energy", None),
    ("spectrum", "solve_energy_by_bracketing", None),
    ("spectrum", "energy_equation_residual", None),
    ("oracle", "find_eigenvalues", None),
    ("oracle", "shoot_eigenfunction", None),
    ("wavefunction", "normalize", None),
    ("wavefunction", "evaluate", None),
    ("cli", "main", None),
)

# targets whose first argument is an array of radii; its size is `points`
_POINT_ARGUMENT = {"pekeris.shape_factor"}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    error: bool
    points: int


class Tracer:
    """Records one span per wrapped call while `request` is set."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.request: int | None = None
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self
        counts_points = name in _POINT_ARGUMENT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.request is None:
                return fn(*args, **kwargs)
            points = int(np.size(args[0])) if counts_points else 0
            parent = tracer._stack[-1] if tracer._stack else None
            sid = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(sid)
            error = False
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                error = True
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = Span(name, start, end, parent,
                                         tracer.request, error, points)

        return wrapper

    def install(self) -> None:
        """Rebind every target in the modules that resolve it."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "wsdirac" or name.startswith("wsdirac.")}
        for mod_name, fn_name, callers in TARGETS:
            original = getattr(modules["wsdirac." + mod_name], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            scope = (modules.values() if callers is None
                     else [modules["wsdirac." + c] for c in callers])
            for mod in scope:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._bindings.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original back."""
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings.clear()

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per wrapped function: calls, self time, errors and points.

        Self time is a span's duration minus the durations of its direct
        child spans.
        """
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals = {f"{m}.{f}": {"calls": 0, "self_s": 0.0, "errors": 0, "points": 0}
                  for m, f, _ in TARGETS}
        for sid, span in enumerate(self.spans):
            t = totals[span.name]
            t["calls"] += 1
            t["self_s"] += span.end - span.start - child_time[sid]
            t["errors"] += span.error
            t["points"] += span.points
        return totals
