"""Span tracer attached to mvowf from outside, by rebinding module names.

mvowf modules import each other's functions with `from .field import rank`,
so a function has one name per importing module (`owf.rank`,
`hardcore.rank`, ...).  `installed` replaces every such name that still
refers to the original function with one timing wrapper, and restores the
originals on exit.  Nothing under `src/` is edited.

A span is one call of a wrapped function, or one `next()` of a wrapped
generator.  Spans stay in memory in a `Recording` (name, start, end, parent
span, instance id) until the benchmark writes them out; a span's self time
is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Functions timed as spans, by defining module.  Generators are timed per next().
SPANNED = {
    "field": (
        "rank",
        "mat_vec",
        "mat_mul",
        "mat_inverse",
        "solve_linear",
        "solve_linear_invertible",
        "random_invertible_mapping",
        "enumerate_invertible",
    ),
    "owf": (
        "iter_matchings",
        "evaluate",
        "transform_image",
        "keygen",
        "invert_backtracking",
        "invert_exhaustive",
        "is_injective",
    ),
    "graphs": ("decide_isomorphic", "extract_isomorphism", "brute_force_iso"),
    "wreath": ("verify_hsp_promise", "wreath_mul", "make_hsp_oracle"),
    "hardcore": ("goldreich_levin_f2", "gl_decode_exhaustive", "trace_invert", "bilinear_invert"),
}
# Called too often and too cheaply to time: only counted.
COUNTED = {"field": ("scalar_inv",)}
GENERATORS = {"field.enumerate_invertible", "owf.iter_matchings"}
DECODERS = {"hardcore.goldreich_levin_f2", "hardcore.gl_decode_exhaustive"}


class Recording:
    """Spans and event counts of one phase of a run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.instance = array("i")
        self.counts: Counter[str] = Counter()
        self._stats: list[tuple[str, dict]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add_span(self, name: str, start: float, end: float, parent: int, instance: int) -> int:
        sid = len(self.start)
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.instance.append(instance)
        return sid

    def stats_dict(self, prefix: str) -> dict:
        """Fresh dict for a `stats=` argument; its numbers add to counts under prefix."""
        d: dict = {}
        self._stats.append((prefix, d))
        return d

    def total_counts(self) -> Counter[str]:
        out = Counter(self.counts)
        for prefix, d in self._stats:
            for k, v in d.items():
                if isinstance(v, (int, float)) and not isinstance(v, bool):
                    out[f"{prefix}.{k}"] += v
        return out

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus time covered by children."""
        if not self.start:
            return {}
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        per_name = np.bincount(
            np.frombuffer(self.name, dtype=np.int32),
            weights=dur - covered,
            minlength=len(self.names),
        )
        return {name: float(per_name[i]) for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            instance=np.frombuffer(self.instance, dtype=np.int32),
        )


class Tracer:
    """Writes spans into the current `rec`; swap `rec` to start a new phase."""

    def __init__(self) -> None:
        self.rec = Recording()
        self.on = True
        self.instance = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        sid = self.rec.add_span(name, perf_counter(), 0.0, parent, self.instance)
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.rec.end[sid] = perf_counter()
        self._stack.pop()

    @contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own output checks) are not traced."""
        was, self.on = self.on, False
        try:
            yield
        finally:
            self.on = was

    def counted(self, fn, key: str):
        """fn, counting its calls under key while tracing is on."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.on:
                self.rec.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            self.rec.counts[name + ".calls"] += 1
            sid = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)

        return wrapper

    def _generator(self, name: str, fn, budget_error: type):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                yield from fn(*args, **kwargs)
                return
            self.rec.counts[name + ".calls"] += 1
            gen = fn(*args, **kwargs)
            try:
                while True:
                    sid = self.open(name)
                    try:
                        value = next(gen)
                    except StopIteration:
                        return
                    except budget_error:
                        self.rec.counts["owf.budget_exceeded.count"] += 1
                        raise
                    finally:
                        self.close(sid)
                    self.rec.counts[name + ".yields"] += 1
                    yield value
            finally:
                gen.close()

        return wrapper

    def _decoder(self, name: str, fn):
        spanned = self._span(name, fn)

        @functools.wraps(fn)
        def wrapper(oracle, *args, **kwargs):
            if not self.on:
                return fn(oracle, *args, **kwargs)
            out = spanned(self.counted(oracle, "hardcore.gl.oracle_calls"), *args, **kwargs)
            self.rec.counts[name + ".candidates"] += len(out)
            return out

        return wrapper

    def _wrap(self, name: str, fn, budget_error: type):
        if name in GENERATORS:
            return self._generator(name, fn, budget_error)
        if name in DECODERS:
            return self._decoder(name, fn)
        return self._span(name, fn)


def mvowf_modules() -> list:
    """The mvowf package and every submodule, imported."""
    import mvowf

    for info in pkgutil.iter_modules(mvowf.__path__):
        importlib.import_module(f"mvowf.{info.name}")
    return [m for key, m in sys.modules.items() if key == "mvowf" or key.startswith("mvowf.")]


@contextmanager
def installed(tracer: Tracer):
    """Rebind every mvowf name of each traced function to its wrapper."""
    modules = mvowf_modules()
    from mvowf import hardcore, owf

    undo: list[tuple[object, str, object]] = []

    def rebind(original, wrapper, attr: str) -> None:
        for module in modules:
            if getattr(module, attr, None) is original:
                undo.append((module, attr, original))
                setattr(module, attr, wrapper)

    try:
        for defining, attrs in SPANNED.items():
            module = sys.modules[f"mvowf.{defining}"]
            for attr in attrs:
                original = getattr(module, attr)
                rebind(original, tracer._wrap(f"{defining}.{attr}", original, owf.BudgetExceededError), attr)
        for defining, attrs in COUNTED.items():
            module = sys.modules[f"mvowf.{defining}"]
            for attr in attrs:
                original = getattr(module, attr)
                rebind(original, tracer.counted(original, f"{defining}.{attr}.calls"), attr)
        query = hardcore.Predictor.query
        undo.append((hardcore.Predictor, "query", query))
        hardcore.Predictor.query = tracer._span("hardcore.Predictor.query", query)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
