"""In-memory spans around the public functions of the ``kab`` modules.

The tracer patches every binding of each traced function in every loaded
``kab`` module: ``from .operators import galerkin_matrix`` gives
``kab.evolution`` its own name for the function, so patching
``kab.operators`` alone would miss the calls made from ``evolution``.
Spans are recorded only while a request runs (``Tracer.request``); the
correctness checks that follow a request call the same functions untraced.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time
import warnings

import numpy as np

# (module, function, extra counter name or None, counter of one call)
TRACED = (
    ("specfun", "big_g", "points", lambda a, k: np.size(a[0])),
    ("specfun", "phase_integral", None, None),
    ("specfun", "lipatov_kappa", None, None),
    (
        "operators",
        "pseudospectral_matrix",
        "bytes_computed",
        lambda a, k: 8 * (a[1] if len(a) > 1 else k["grid"]).m_points ** 2,
    ),
    ("operators", "pseudospectral_spectrum", None, None),
    ("operators", "pseudospectral_eigensystem", None, None),
    ("operators", "galerkin_spectrum", None, None),
    ("operators", "galerkin_matrix", None, None),
    ("operators", "harmonic", None, None),
    ("operators", "project", None, None),
    ("operators", "synthesize", None, None),
    (
        "exact",
        "conical_legendre_grid",
        "cells",
        lambda a, k: np.size(a[0]) * np.size(a[1]),
    ),
    ("exact", "mehler_fock_forward", None, None),
    ("exact", "mehler_fock_inverse", None, None),
    ("semiclassics", "bohr_sommerfeld_solve", None, None),
    (
        "semiclassics",
        "semiclassical_wavefunction",
        "points",
        lambda a, k: np.size(a[3] if len(a) > 3 else k["u"]),
    ),
    ("evolution", "evolve_matrix", None, None),
    ("evolution", "evolve_spectral", None, None),
)

LAYERS = ("specfun", "operators", "exact", "semiclassics", "evolution", "cli")

# the lru_cache'd entry points whose cache_info() gives operators.cache.*
CACHED = ("galerkin_spectrum", "pseudospectral_spectrum", "pseudospectral_eigensystem")

CLI_COMMANDS = (
    "table1",
    "spectrum",
    "wkb-table",
    "eigenfunction",
    "mehler-fock",
    "evolve",
    "boundary-fit",
)


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, request id]
        self.counts = {}
        self.warnings = {}
        self._stack = []
        self._request = None
        self._originals = {}

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.monotonic(), None, parent, self._request])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.monotonic()
        self._stack.pop()

    def count(self, key: str, n) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(n)

    @contextlib.contextmanager
    def request(self, rid):
        """Record spans, warnings and cache use for the calls made inside the block."""
        hits, misses = self.cache_totals()
        self._request = rid
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = self._on_warning
            try:
                yield
            finally:
                self._request = None
                h, m = self.cache_totals()
                self.count("operators.cache.hits", h - hits)
                self.count("operators.cache.misses", m - misses)

    def _on_warning(self, message, category, filename, lineno, file=None, line=None):
        name = self.spans[self._stack[-1]][0] if self._stack else "unattributed"
        layer = name.split(".", 1)[0]
        self.warnings[layer] = self.warnings.get(layer, 0) + 1

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of the TRACED functions in the loaded kab modules."""
        mods = [m for k, m in list(sys.modules.items()) if k == "kab" or k.startswith("kab.")]
        for module, fname, counter, measure in TRACED:
            orig = getattr(sys.modules[f"kab.{module}"], fname)
            self._originals[fname] = orig
            wrapper = self._wrap(f"{module}.{fname}", orig, counter, measure)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)

    def _wrap(self, name, fn, counter, measure):
        calls_key = f"{name}.calls"
        extra_key = f"{name}.{counter}" if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._request is None:
                return fn(*args, **kwargs)
            self.count(calls_key, 1)
            if extra_key:
                self.count(extra_key, measure(args, kwargs))
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def cache_totals(self) -> tuple[int, int]:
        """(hits, misses) summed over the lru_cache'd operators functions."""
        hits = misses = 0
        if not self._originals:
            return hits, misses
        for fname in CACHED:
            info = self._originals[fname].cache_info()
            hits += info.hits
            misses += info.misses
        return hits, misses

    def adopt(self, part: dict, parent: int) -> None:
        """Add the spans, counts and warnings of ``part`` (a ``dump`` from a
        child process) under span ``parent`` of the current request."""
        offset = len(self.spans)
        for name, start, end, par, _ in part["spans"]:
            self.spans.append(
                [name, start, end, parent if par is None else par + offset, self._request]
            )
        for key, n in part["counts"].items():
            self.count(key, n)
        for layer, n in part["warnings"].items():
            self.warnings[layer] = self.warnings.get(layer, 0) + n

    # -- export -------------------------------------------------------------

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "warnings": self.warnings}


def self_times(spans) -> tuple[dict, float]:
    """Per-name self time (duration minus direct children) and the summed
    duration of root spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out = {}
    roots = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[i]
        if parent is None:
            roots += end - start
    return out, roots


def layer_metrics(dump: dict, extra_s: dict) -> dict:
    """The per-layer metrics of one traced run, every name always present.

    ``extra_s`` holds the measured times that are not function self times:
    ``cli.import.s`` and the per-command ``cli.<command>.s`` wall times.
    """
    selfs, _ = self_times(dump["spans"])
    out = {}
    for module, fname, counter, _ in TRACED:
        name = f"{module}.{fname}"
        out[f"{name}.calls"] = (dump["counts"].get(f"{name}.calls", 0), "count")
        if counter:
            unit = "B" if counter == "bytes_computed" else "count"
            out[f"{name}.{counter}"] = (dump["counts"].get(f"{name}.{counter}", 0), unit)
        out[f"{name}.s"] = (selfs.get(name, 0.0), "s")
    out["operators.cache.hits"] = (dump["counts"].get("operators.cache.hits", 0), "count")
    out["operators.cache.misses"] = (dump["counts"].get("operators.cache.misses", 0), "count")
    out["cli.import.s"] = (extra_s.get("cli.import.s", 0.0), "s")
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.s"] = (extra_s.get(f"cli.{cmd}.s", 0.0), "s")
    for layer in LAYERS:
        out[f"{layer}.warnings"] = (dump["warnings"].get(layer, 0), "count")
    return out
