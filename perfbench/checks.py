"""Output checks that do not depend on the seed, and the stored reference.

Within one run every operation's output must be byte-identical across passes.
At the reference seed the outputs are also compared with ``reference.json``.
The tolerance of each reported number is derived from the ROADMAP contract
that a change moving any filter value by at most 1e-12 is not a numerical
change: ``--write-reference`` perturbs the output of every kernel call by a
random relative amount calibrated so that filter values move by 1e-12, runs the
workload three times that way, and stores ten times the largest movement of
each number.  Numbers the perturbation does not move (constants computed from
the model parameters alone) must match to 1e-12 relative; integers, flags and
strings must match exactly.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import numpy as np

from tracing import Patches

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEED = 2026
CONTRACT_MOVE = 1e-12
TOLERANCE_MARGIN = 10.0
REL_FLOOR = 1e-12
PERTURBED_RUNS = 3
PERTURBED_KERNELS = (
    ("filters", "propagate_cell"),
    ("filters", "propagate_cell_matrix"),
    ("filters", "wonham_step"),
    ("experiments", "_euler_batch_values"),
)


def flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from flatten(value, f"{prefix}/{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from flatten(value, f"{prefix}/{i}")
    else:
        yield prefix, obj


def _is_real(x) -> bool:
    return isinstance(x, float) or (isinstance(x, int) and not isinstance(x, bool))


def reference_failures(op: str, output: str, reference: dict) -> list:
    if op not in reference["outputs"]:
        return [f"{op}: no stored reference"]
    got = dict(flatten(json.loads(output)))
    want = dict(flatten(reference["outputs"][op]))
    if got.keys() != want.keys():
        return [f"{op}: output fields differ from the reference"]
    tolerance = reference["tolerance"].get(op, {})
    failures = []
    for key, ref in want.items():
        value = got[key]
        if isinstance(ref, float) and _is_real(value):
            if math.isnan(ref) and math.isnan(value):
                continue
            tol = max(tolerance.get(key, 0.0), REL_FLOOR * abs(ref))
            if not abs(value - ref) <= tol:
                failures.append(f"{op}{key}: {value!r} vs reference {ref!r} (tolerance {tol:.3e})")
        elif value != ref or type(value) is not type(ref):
            failures.append(f"{op}{key}: {value!r} vs reference {ref!r}")
    return failures


def check_passes(passes, reference) -> list:
    """Add reference and cross-pass identity failures to the outcomes; return all failures."""
    first = {r.name: r.outcome.output for r in passes[0]["ops"]}
    if reference is not None:
        for r in passes[0]["ops"]:
            if r.outcome.output:
                r.outcome.failures += reference_failures(r.name, r.outcome.output, reference)
    for p in passes[1:]:
        for r in p["ops"]:
            if r.outcome.output and r.outcome.output != first[r.name]:
                r.outcome.failures.append(f"{r.name}: output differs from the first pass")
    return [f for p in passes for r in p["ops"] for f in r.outcome.failures]


def perturbation(wl, eps: float, seed: int) -> Patches:
    """Multiply every kernel output by (1 + eps * u), u uniform on [-1, 1]."""
    rng = np.random.default_rng(seed)

    def make(fn):
        @functools.wraps(fn)
        def perturbed(*args, **kwargs):
            out = fn(*args, **kwargs)
            return out * (1.0 + eps * rng.uniform(-1.0, 1.0, np.shape(out)))
        return perturbed

    return Patches(wl, [(module, attr, make) for module, attr in PERTURBED_KERNELS])


def calibrate(wl, truth: dict) -> float:
    """Relative kernel perturbation that moves filter values by CONTRACT_MOVE.

    Measured on one path of the workload's true model over [0, 10] at dt 1e-3.
    """
    model = wl.FilterModel.from_raw(**truth)
    grid = wl.TimeGrid(10.0, 1e-3)
    sig, noise = wl.spawn_generators(REFERENCE_SEED, 2)
    path = wl.simulate_signal(model.initial, model.generator, grid, sig)
    obs = wl.simulate_observations(path, model.observation, grid, noise)
    args = (model.initial, model.generator, model.observation, obs)
    base = wl.filters.filter_trajectory(*args).values
    probe_eps = 1e-14
    with perturbation(wl, probe_eps, 0):
        moved = wl.filters.filter_trajectory(*args).values
    return probe_eps * CONTRACT_MOVE / float(np.abs(moved - base).max())


def derive_reference(wl, workload, first_pass, rerun) -> dict:
    """Reference outputs of a clean pass, with per-number tolerances (see module docstring)."""
    outputs = {r.name: json.loads(r.outcome.output) for r in first_pass["ops"]}
    flat = {name: dict(flatten(out)) for name, out in outputs.items()}
    eps = calibrate(wl, workload.truth)
    worst = {}
    for run in range(PERTURBED_RUNS):
        with perturbation(wl, eps, run + 1):
            perturbed = rerun()
        for r in perturbed["ops"]:
            got = dict(flatten(json.loads(r.outcome.output)))
            for key, ref in flat[r.name].items():
                if isinstance(ref, float) and not math.isnan(ref):
                    delta = abs(got[key] - ref)
                    worst[r.name, key] = max(worst.get((r.name, key), 0.0), delta)
    tolerance = {}
    for (name, key), delta in worst.items():
        ref = flat[name][key]
        if TOLERANCE_MARGIN * delta > REL_FLOOR * abs(ref):
            tolerance.setdefault(name, {})[key] = TOLERANCE_MARGIN * delta
    return {"seed": REFERENCE_SEED, "kernel_eps": eps, "outputs": outputs, "tolerance": tolerance}
