"""Spans around the public layers of diffdim, for the traced run only.

``Tracer.install`` replaces each traced function by a wrapper in every
module that binds its name, including the modules that call it from
inside the library (``lindiff`` imports ``volume_ie`` from ``expsets``, for
instance), so internal calls are captured too.  ``uninstall`` puts the
originals back.  The timed end-to-end runs never install it.

A span is ``(name, start, end, parent, instance, work)``; spans are kept in
a list in memory and written out when the run ends.  A layer's self time
is its span duration minus the time covered by its direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import time
from math import comb

from diffdim import diffrank, expsets, lindiff


def _prolongation(args, kwargs, result):
    system, s, margin = args[:3]
    level = s + margin
    return {"columns": system.n * comb(system.m + level, system.m), "level": level}


def _subsets(args, kwargs, result):
    return {"subsets": 2 ** len(expsets.minimal_elements(args[0]).generators)}


def _candidates(args, kwargs, result):
    exp_set, s = args[:2]
    return {"candidates": comb(s + exp_set.m, exp_set.m)}


def _basis(args, kwargs, result):
    bits = 0
    for eq in result.equations:
        for c, _ in eq.terms:
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return {"basis_size": len(result.equations), "max_coeff_bits": bits}


def _generators(args, kwargs, result):
    return {"generators": sum(len(es.generators) for es in result.variable_sets)}


# (home module, function name, work recorder or None).  The recorder turns
# the call's arguments and result into a dict of counts.
TRACED = (
    (lindiff, "parse_system", None),
    (expsets, "parse_exponent_set", None),
    (lindiff, "module_groebner", _basis),
    (lindiff, "leader_profile", _generators),
    (lindiff, "kolchin_polynomial", None),
    (lindiff, "kolchin_via_prolongation", None),
    (lindiff, "prolongation_dimension", _prolongation),
    (diffrank, "kolchin_from_leaders", None),
    (expsets, "dimension_polynomial", None),
    (expsets, "stability_bound", None),
    (expsets, "volume", _candidates),
    (expsets, "volume_ie", _subsets),
)

_MODULES = (lindiff, expsets, diffrank)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.instance = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        # (span index, recorder, args, kwargs, result): work is counted by
        # finish(), after the run, so that counting adds to no span.
        self._pending: list[tuple] = []

    def _open(self) -> tuple[int, int | None]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx, parent, label, start) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (label, start, end, parent, self.instance, None)

    def _wrap(self, label, fn, work):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, parent, label, start)
            if work is not None:
                self._pending.append((idx, work, args, kwargs, result))
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, label):
        """A span opened by the benchmark itself."""
        idx, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, parent, label, start)

    def install(self) -> None:
        for home, name, work in TRACED:
            original = getattr(home, name)
            label = f"{home.__name__.rsplit('.', 1)[-1]}.{name}"
            wrapper = self._wrap(label, original, work)
            for module in _MODULES:
                if getattr(module, name, None) is original:
                    self._saved.append((module, name, original))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def finish(self) -> None:
        """Count the work of every recorded call into its span."""
        for idx, work, args, kwargs, result in self._pending:
            self.spans[idx] = self.spans[idx][:5] + (work(args, kwargs, result),)
        self._pending.clear()

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "instance", "work"],
                 "spans": self.spans},
                fh,
            )


def self_times(spans) -> list[float]:
    """Per span: duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


# Per-layer metrics reported by the traced run, as in BENCHMARK.json:
# (metric, unit, how it is computed).  "share" is the layer's self time as
# a percentage of the total time of all measured instances; "work" is a
# recorder's count, summed over calls (the maximum, for max_ counts).
LAYER_METRICS = (
    ("lindiff.prolongation_dimension.calls", "count", "calls"),
    ("lindiff.prolongation_dimension.self_share", "%", "share"),
    ("lindiff.prolongation_dimension.columns", "count", "work"),
    ("lindiff.prolongation_dimension.useful_ratio", "ratio", "levels"),
    ("expsets.volume_ie.calls", "count", "calls"),
    ("expsets.volume_ie.self_share", "%", "share"),
    ("expsets.volume_ie.subsets", "count", "work"),
    ("lindiff.module_groebner.calls", "count", "calls"),
    ("lindiff.module_groebner.self_share", "%", "share"),
    ("lindiff.module_groebner.basis_size", "count", "work"),
    ("lindiff.module_groebner.max_coeff_bits", "bits", "work"),
    ("lindiff.kolchin_via_prolongation.self_share", "%", "share"),
    ("expsets.volume.calls", "count", "calls"),
    ("expsets.volume.self_share", "%", "share"),
    ("expsets.volume.candidates", "count", "work"),
    ("expsets.dimension_polynomial.calls", "count", "calls"),
    ("expsets.dimension_polynomial.self_share", "%", "share"),
    ("diffrank.kolchin_from_leaders.self_share", "%", "share"),
    ("lindiff.parse_system.calls", "count", "calls"),
    ("lindiff.parse_system.self_share", "%", "share"),
    ("lindiff.leader_profile.generators", "count", "work"),
)


def layer_metrics(spans) -> tuple[dict, dict]:
    """Per-layer metrics from the spans, plus the self seconds per layer.

    ``useful_ratio`` is the number of distinct prolongation levels s+margin
    per instance divided by the number of prolongation calls: a call whose
    level an earlier call of the same instance already eliminated is
    repeated work.
    """
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    work: dict[str, float] = {}
    levels = set()
    for span, t in zip(spans, own):
        name, work_done = span[0], span[5]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + t
        for key, value in (work_done or {}).items():
            key = f"{name}.{key}"
            if key.endswith(".level"):
                levels.add((span[4], value))
            elif key.endswith(".max_coeff_bits"):
                work[key] = max(work.get(key, 0), value)
            else:
                work[key] = work.get(key, 0) + value
    total = sum(s[2] - s[1] for s in spans if s[0] == "instance")
    out = {}
    for metric, unit, how in LAYER_METRICS:
        layer, _, _ = metric.rpartition(".")
        if how == "calls":
            value = calls.get(layer, 0)
        elif how == "share":
            value = 100.0 * self_s.get(layer, 0.0) / total if total else 0.0
        elif how == "levels":
            n = calls.get(layer, 0)
            value = len(levels) / n if n else 0.0
        else:
            value = work.get(metric, 0)
        out[metric] = {"value": value, "unit": unit}
    return out, self_s
