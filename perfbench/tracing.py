"""Layer spans recorded from outside the package.

A ``Recorder`` replaces selected functions of ``wonhamlab`` with timing
wrappers for the duration of a ``with`` block.  Several modules import kernels
by name (``experiments`` holds its own ``propagate_cell``, ``sensitivity`` its
own ``cell_propagators``, the experiment registry holds the runners), so every
namespace that holds the original function object is patched.

Spans are aggregated per name in memory: calls, self time (wall time minus the
time of child spans and of speed sampling inside the span), and the work the
call was given.  The root spans' time less that sampling, over the pass time,
is the share of the pass the spans cover.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import sys
import time
from collections import defaultdict

import numpy as np


def fingerprint(*args, **kwargs) -> str:
    """Stable hash of call arguments, used to count distinct inputs."""
    digest = hashlib.sha1()

    def feed(obj):
        if isinstance(obj, np.ndarray):
            digest.update(repr((obj.dtype.str, obj.shape)).encode())
            digest.update(np.ascontiguousarray(obj).tobytes())
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            digest.update(type(obj).__name__.encode())
            for f in dataclasses.fields(obj):
                feed(getattr(obj, f.name))
        elif isinstance(obj, (list, tuple)):
            digest.update(b"[")
            for item in obj:
                feed(item)
            digest.update(b"]")
        else:
            digest.update(repr(obj).encode())

    feed(args)
    feed(sorted(kwargs.items()))
    return digest.hexdigest()


# Kernel arguments are always arrays; the observation increment may be a scalar.
def _cell_span(args, kwargs):
    values, d_y = args[0], args[1]
    width = values.size // values.shape[-1]
    nbytes = 2 * values.nbytes + getattr(d_y, "nbytes", 8)
    return ("filters.cell.narrow" if width == 1 else "filters.cell.wide"), width, nbytes


def _cell_matrix_span(args, kwargs):
    matrices, d_y = args[0], args[1]
    width = matrices.size // (matrices.shape[-1] * matrices.shape[-2])
    return "filters.cell_matrix", width, 2 * matrices.nbytes + getattr(d_y, "nbytes", 8)


def _batch_span(args, kwargs):
    n_trials = kwargs["n_trials"] if "n_trials" in kwargs else args[5]
    return "simulate.batch", int(n_trials), 0


def _fixed(span):
    return lambda args, kwargs: (span, 0, 0)


# (module, attribute, classifier, keep argument fingerprints)
TARGETS = [
    ("simulate", "simulate_increments_batch", _batch_span, True),
    ("simulate", "simulate_signal", _fixed("simulate.signal"), False),
    ("simulate", "simulate_observations", _fixed("simulate.observations"), False),
    ("filters", "propagate_cell", _cell_span, False),
    ("filters", "propagate_cell_matrix", _cell_matrix_span, False),
    ("filters", "cell_propagators", _fixed("filters.propagators"), False),
    ("filters", "filter_trajectory", _fixed("filters.trajectory"), False),
    ("filters", "euler_filter_trajectory", _fixed("filters.euler"), False),
    ("filters", "zakai_flow", _fixed("filters.flow"), False),
    ("experiments", "measure_integrator_tolerance", _fixed("experiments.probe"), True),
    ("experiments", "run_robustness_experiment", _fixed("experiments.robustness"), False),
    ("experiments", "run_forgetting_experiment", _fixed("experiments.forgetting"), False),
    ("experiments", "run_inverse_moment_experiment", _fixed("experiments.inverse_moment"), False),
    ("experiments", "run_convergence_sweep", _fixed("experiments.convergence_sweep"), False),
    ("experiments", "run_derivative_audit", _fixed("experiments.derivative_audit"), False),
    ("experiments", "run_integrator_refinement", _fixed("experiments.integrator_refinement"), False),
    ("sensitivity", "derivative_flow", _fixed("sensitivity.derivative"), False),
    ("sensitivity", "derivative_smoothing_route", _fixed("sensitivity.derivative"), False),
    ("sensitivity", "second_derivative_flow", _fixed("sensitivity.derivative"), False),
    ("sensitivity", "robustness_inequality", _fixed("sensitivity.inequality"), False),
    ("sensitivity", "error_representation_check", _fixed("sensitivity.inequality"), False),
    ("sensitivity", "derivative_from_flow", _fixed("sensitivity.batch_algebra"), False),
    ("sensitivity", "second_derivative_from_flow", _fixed("sensitivity.batch_algebra"), False),
    ("sensitivity", "smoothing_from_flow", _fixed("sensitivity.batch_algebra"), False),
    ("sensitivity", "_apply", _fixed("sensitivity.batch_algebra"), False),
    ("models", "robustness_constants", _fixed("models.constants"), False),
    ("models", "inverse_moment_constant", _fixed("models.constants"), False),
    ("models", "mixing_rate", _fixed("models.constants"), False),
    ("config", "load_config", _fixed("config.load"), False),
    ("cli", "write_report", _fixed("cli.write_report"), False),
]


class Patches:
    """Replace functions of the package in every namespace that holds them.

    ``replacements`` lists (module, attribute, make) where ``make(original)``
    returns the replacement.  Module namespaces of the package and the
    experiment registry are searched; exiting restores every original.
    """

    def __init__(self, package, replacements):
        self.package = package
        self.replacements = replacements
        self._undo: list[tuple[dict, object, object]] = []

    def _namespaces(self):
        prefix = self.package.__name__
        for name, module in list(sys.modules.items()):
            if module is not None and (name == prefix or name.startswith(prefix + ".")):
                yield vars(module)

    def __enter__(self):
        registry = self.package.experiments.EXPERIMENTS
        try:
            for module_name, attr, make in self.replacements:
                original = getattr(getattr(self.package, module_name), attr)
                replacement = make(original)
                for namespace in self._namespaces():
                    for key, value in list(namespace.items()):
                        if value is original:
                            self._undo.append((namespace, key, value))
                            namespace[key] = replacement
                for key, entry in list(registry.items()):
                    if entry[0] is original:
                        self._undo.append((registry, key, entry))
                        registry[key] = (replacement,) + tuple(entry[1:])
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        for namespace, key, original in reversed(self._undo):
            namespace[key] = original
        self._undo.clear()
        return False


@dataclasses.dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    work: int = 0
    nbytes: int = 0


class Recorder:
    """Per-pass span aggregates; use as ``with recorder:`` around traced work."""

    def __init__(self, package):
        self.package = package
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        self.calls_by_target: dict[str, int] = defaultdict(int)
        self.fingerprints: dict[str, list[str]] = defaultdict(list)
        self.jumps = 0
        self.report_bytes = 0
        self.root_s = 0.0
        self.foreign_s = 0.0
        self._stack: list[list[float]] = []

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, target: str, fn, *, classify, keep_fingerprint: bool):
        stats, stack = self.stats, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span, work, nbytes = classify(args, kwargs)
            if keep_fingerprint:
                self.fingerprints[span].append(fingerprint(*args, **kwargs))
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.root_s += elapsed
                entry = stats[span]
                entry.calls += 1
                entry.self_s += elapsed - frame[0]
                entry.work += work
                entry.nbytes += nbytes
                self.calls_by_target[target] += 1
            if span == "simulate.signal":
                self.jumps += len(result.states) - 1
            elif span == "cli.write_report":
                self.report_bytes += sum(p.stat().st_size for p in result)
            return result

        return wrapper

    def __enter__(self):
        self._patches = Patches(self.package, [
            (module_name, attr, functools.partial(self._wrap, f"{module_name}.{attr}",
                                                  classify=classify, keep_fingerprint=keep))
            for module_name, attr, classify, keep in TARGETS
        ])
        self._patches.__enter__()
        return self

    def __exit__(self, *exc):
        return self._patches.__exit__(*exc)

    def foreign(self, seconds: float) -> None:
        """Count time the benchmark itself spent inside the current span (speed
        sampling) as neither the span's self time nor any layer's."""
        if self._stack:
            self._stack[-1][0] += seconds
            self.foreign_s += seconds

    # -- results ------------------------------------------------------------

    def distinct_ratio(self, span: str) -> float:
        seen = self.fingerprints.get(span, [])
        return len(set(seen)) / len(seen) if seen else 0.0

    def merged(self, *spans: str) -> SpanStats:
        out = SpanStats()
        for span in spans:
            s = self.stats.get(span, SpanStats())
            out.calls += s.calls
            out.self_s += s.self_s
            out.work += s.work
            out.nbytes += s.nbytes
        return out
