"""In-memory span tracer for the adconn benchmark.

The adconn modules import names directly (``stiffness`` is bound in
``framework``, ``spectral``, ``bounds``, ``verify``, ``cli`` and the package
namespace), so a function is traced by replacing *every* binding of it: each
module attribute, and each value of a module-level dict (``verify`` dispatches
its suites through one), that is the original function object.  The numpy
eigensolvers are patched on ``numpy.linalg``, which is where adconn looks them
up at call time, so the optimizer's private eigensolves are counted too.

A span is (name, start, end, parent index).  Spans stay in memory; a span's
self time is its duration minus the durations of its direct children.
A target missing from the library (renamed or moved) stops the run with
``MissingTargets`` rather than reading as zero calls.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

ROOT_SPAN = "bench.pass"

# (metric prefix, module, attribute)
LINALG_TARGETS = (
    ("linalg.eigvalsh", "numpy.linalg", "eigvalsh"),
    ("linalg.eigh", "numpy.linalg", "eigh"),
)
ADCONN_TARGETS = (
    ("optimize.gap_ascent", "adconn.optimize", "gap_ascent"),
    ("optimize.seeded_restarts", "adconn.optimize", "seeded_restarts"),
    ("framework.stiffness", "adconn.framework", "stiffness"),
    ("framework.rigidity_matrix", "adconn.framework", "rigidity_matrix"),
    ("framework.lower_stiffness_direct", "adconn.framework", "lower_stiffness_direct"),
    ("spectral.symmetric_eigenvalues", "adconn.spectral", "symmetric_eigenvalues"),
    ("spectral.cluster_multiplicities", "adconn.spectral", "cluster_multiplicities"),
    ("bounds.vertex_star_projection", "adconn.bounds", "vertex_star_projection"),
    ("bounds.top_eigenvalue_sum_check", "adconn.bounds", "top_eigenvalue_sum_check"),
    ("graphs.complete_graph", "adconn.graphs", "complete_graph"),
    ("closedform.spectrum_matches", "adconn.closedform", "spectrum_matches"),
)
FAMILIES_FUNCTIONS = (
    "eigen_residual",
    "weighted_length_vector",
    "edge_length_eigenvector",
    "eigenvector_condition_check",
    "part_quad_vector",
    "star_difference_vector",
    "turan_simplex_families",
    "axis_quad_vector",
    "block_sign_vector",
    "sign_split_vector",
    "vertex_shift_vector",
    "crosspolytope_families",
)


def default_targets() -> tuple[tuple[str, str, str], ...]:
    from adconn.verify import SUITES

    return (
        LINALG_TARGETS
        + ADCONN_TARGETS
        + tuple((f"families.{f}", "adconn.families", f) for f in FAMILIES_FUNCTIONS)
        + tuple((f"verify.{s}", "adconn.verify", f"suite_{s}") for s in SUITES)
    )


class MissingTargets(LookupError):
    """A traced function is not where the benchmark expects it."""


# Computed counters (never measured): derived from argument and result shapes.
EIG_DIM3 = "linalg.eig_dim3_sum"
STIFFNESS_BYTES = "framework.stiffness.bytes_computed"
LOWER_BYTES = "framework.lower_stiffness.bytes_computed"
ASCENT_EIGENSOLVES = "optimize.eigensolves"
ASCENT_RESTARTS = "optimize.restarts"


class Tracer:
    """Patches every binding of the targets while installed; records spans."""

    def __init__(self):
        self.targets = default_targets()
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._patches: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        found, missing = [], []
        for label, module_name, attr in self.targets:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None) if module is not None else None
            (found if original is not None else missing).append((label, module, original))
        if missing:
            raise MissingTargets("traced functions not found: " + ", ".join(m[0] for m in missing))
        namespaces = [m for name, m in list(sys.modules.items())
                      if m is not None and (name == "adconn" or name.startswith("adconn."))]
        for label, module, original in found:
            wrapper = self.wrap(label, original)
            self._rebind(module, original, wrapper)
            for ns in namespaces:
                self._rebind(ns, original, wrapper)
        return self

    def _rebind(self, module, original, wrapper) -> None:
        for key, value in list(vars(module).items()):
            if value is original:
                self._patches.append((vars(module), key, original))
                setattr(module, key, wrapper)
            elif type(value) is dict:
                for k, v in list(value.items()):
                    if v is original:
                        self._patches.append((value, k, original))
                        value[k] = wrapper

    def remove(self) -> None:
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- recording ----------------------------------------------------------

    def wrap(self, label, fn):
        """``fn`` recording one span named ``label`` per call."""
        count = _COUNTERS.get(label)
        spans, stack, opened = self.spans, self._stack, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            opened[label] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                opened[label] -= 1
                stack.pop()
                spans[idx] = (label, start, end, parent)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def take(self) -> list:
        """Hand over the recorded spans and start a fresh list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        spans = list(self.spans)
        self.spans.clear()
        return spans


def _count_eig(tracer: Tracer, args, kwargs, result) -> None:
    a = args[0] if args else kwargs["a"]
    tracer.counts[EIG_DIM3] += int(a.shape[-1]) ** 3
    if tracer._open["optimize.gap_ascent"]:
        tracer.counts[ASCENT_EIGENSOLVES] += 1


def _count_bytes(key: str):
    def count(tracer: Tracer, args, kwargs, result) -> None:
        tracer.counts[key] += int(result.nbytes)

    return count


def _count_ascent(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts[ASCENT_RESTARTS] += int(result.config.restarts)


_COUNTERS = {
    "linalg.eigvalsh": _count_eig,
    "linalg.eigh": _count_eig,
    "framework.stiffness": _count_bytes(STIFFNESS_BYTES),
    "framework.lower_stiffness_direct": _count_bytes(LOWER_BYTES),
    "optimize.gap_ascent": _count_ascent,
}


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, total self time in seconds)."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        acc = out.setdefault(name, [0, 0.0])
        acc[0] += 1
        acc[1] += (end - start) - child[i]
    return {k: (v[0], v[1]) for k, v in out.items()}


def spans_to_json(spans) -> list[dict]:
    """Spans as JSON records, times relative to the first span's start."""
    t0 = spans[0][1] if spans else 0.0
    return [
        {"id": i, "name": name, "start_s": start - t0, "end_s": end - t0, "parent": parent}
        for i, (name, start, end, parent) in enumerate(spans)
    ]
