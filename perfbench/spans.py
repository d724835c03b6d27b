"""Call spans for the traced benchmark run.

A :class:`Tracer` wraps module-level functions so that each call records a
span ``[name, start, end, parent]`` in memory. The wrapper only times and
counts: it hands back the wrapped function's return value untouched and
never looks inside it, except to total ``nbytes`` for the functions named in
``sized``. Self time and per-layer totals are computed from the spans after
the run, in :func:`self_times` and :func:`layer_totals`.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

#: Public functions timed in the traced run, as ``module.function`` under
#: the ``qpbreed`` package. Every ``cmd_*`` of the CLI is added at install.
TRACED = (
    "fock.beamsplitter",
    "fock.qunaught_state",
    "fock.displacement",
    "homodyne.quadrature_basis",
    "homodyne.label_peaks",
    "metrics.wigner",
    "metrics.hermite_functions",
    "metrics.effective_squeezing",
    "metrics.fidelity",
    "numerics.expm_skew_hermitian",
    "numerics.eig_hermitian_tridiagonal",
    "protocol.breed_step",
    "protocol.run_chain",
    "protocol.default_target",
    "protocol.enumerate_two_iterations",
    "protocol.probability_fidelity_curve",
    "protocol.effective_squeezing_curve",
    "protocol.sweep_binomial_inputs",
)

#: Functions whose returned operators are sized, once per cache miss.
SIZED = ("fock.beamsplitter",)

#: ``lru_cache``d functions whose ``cache_info()`` is read after the command.
CACHED = (
    "fock.beamsplitter",
    "fock.annihilation",
    "homodyne.quadrature_basis",
    "metrics._probe",
)

#: Span names reported together under one layer name; every ``cli.cmd_*``
#: span is reported as ``cli``.
GROUPS = {
    "protocol.probability_fidelity_curve": "protocol.curves",
    "protocol.effective_squeezing_curve": "protocol.curves",
}


def layer_name(span_name: str) -> str:
    if span_name.startswith("cli.cmd_"):
        return "cli"
    return GROUPS.get(span_name, span_name)


def nbytes(obj) -> int:
    """Total ``nbytes`` of an array, or of the arrays in a list, tuple or dict."""
    if hasattr(obj, "nbytes"):
        return int(obj.nbytes)
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(nbytes(item) for item in obj)
    return 0


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, sized=SIZED):
        self.spans: list[list] = []
        self.bytes: dict[str, int] = defaultdict(int)
        self._sized = frozenset(sized)
        self._stack: list[int] = []

    def wrap(self, name: str, func):
        cache_info = getattr(func, "cache_info", None)
        sized = name in self._sized

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            misses = cache_info().misses if sized and cache_info else None
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if sized and (misses is None or cache_info().misses > misses):
                self.bytes[name] += nbytes(result)
            return result

        if cache_info is not None:
            traced.cache_info = cache_info
            traced.cache_clear = func.cache_clear
        return traced


def _package_modules(package: str):
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == package or name.startswith(package + "."))
    ]


def install(tracer: Tracer, package: str = "qpbreed", names=TRACED) -> list[str]:
    """Wrap each named function of the already imported package.

    The wrapper replaces the function as an attribute of its defining module,
    under every other name a package module bound it to (``from .fock import
    beamsplitter``), and as a value of module-level dicts such as the CLI's
    command table. Returns the traced names, the CLI commands included.
    """
    modules = _package_modules(package)
    cli = sys.modules.get(f"{package}.cli")
    commands = sorted(n for n in vars(cli) if n.startswith("cmd_")) if cli else []
    names = list(names) + [f"cli.{n}" for n in commands]
    replacements = {}
    for name in names:
        module_name, _, attr = name.rpartition(".")
        original = getattr(sys.modules[f"{package}.{module_name}"], attr)
        replacements[id(original)] = (original, tracer.wrap(name, original))
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in replacements and replacements[id(value)][0] is value:
                setattr(module, attr, replacements[id(value)][1])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in replacements and replacements[id(item)][0] is item:
                        value[key] = replacements[id(item)][1]
    return names


def cache_stats(package: str = "qpbreed", names=CACHED) -> dict[str, dict[str, int]]:
    """Hits and misses of the named ``lru_cache``d functions, read from outside."""
    stats = {}
    for name in names:
        module_name, _, attr = name.rpartition(".")
        info = getattr(sys.modules[f"{package}.{module_name}"], attr).cache_info()
        stats[name] = {"hits": info.hits, "misses": info.misses}
    return stats


def self_times(spans) -> list[float]:
    """Own time of each span: its duration minus its children's durations.

    The spans come from one single-threaded process with a strict call stack,
    so a span's children run one after another and inside it.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Calls, inclusive time ``s`` and own time ``self_s`` per layer name.

    A layer's inclusive time counts only its outermost spans, so a layer that
    calls itself, directly or through another layer, is not counted twice.
    """
    own = self_times(spans)
    layer_of = [layer_name(name) for name, *_ in spans]
    totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for index, (_, start, end, parent) in enumerate(spans):
        layer = layer_of[index]
        entry = totals[layer]
        entry["calls"] += 1
        entry["self_s"] += own[index]
        while parent is not None and layer_of[parent] != layer:
            parent = spans[parent][3]
        if parent is None:
            entry["s"] += end - start
    return dict(totals)
