"""wonhamlab benchmark: end-to-end and per-layer metrics for one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload desk-campaign --seed 2026 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout, never from an installed
copy.  Set-up is timed in fresh processes; then passes over the workload's
operations repeat until ``--seconds`` is used up (at least two, so outputs can
be compared across passes).  With ``--trace 1`` untraced and traced passes
alternate: the traced ones give the per-layer metrics, the untraced ones the
tracing overhead.  Every output is checked; the last line of standard output
is the JSON result, and a fuller record with provenance is written to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
SETUP_REPEATS = 9
MIN_PASSES = 2
# Share of a traced pass the root spans must cover; every operation is a few
# calls into the package, so the rest is the benchmark's own checks.
MIN_COVERAGE = 0.99
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1

# Runs in a fresh interpreter.  Its speed kernel is pure Python, so sampling
# starts before the package and numpy are imported.
SETUP_SCRIPT = """
import sys
from pathlib import Path
sys.path[:0] = [{src!r}, {bench!r}]
from speed import SpeedSampler, python_kernel_s


def setup():
    import wonhamlab, wonhamlab.cli, wonhamlab.config
    from workloads import WORKLOADS
    WORKLOADS[{workload!r}](wonhamlab, {seed!r}, Path({out!r})).prepare()


with SpeedSampler(python_kernel_s) as sampler:
    _, wall, ref = sampler.time(setup)
print(wall, ref)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("desk-campaign", "single-path", "matrix-audit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's outputs and tolerances as the reference "
                             "(reference seed only)")
    return parser.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> None:
    """One BLAS thread, whatever the environment asks for."""
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def provenance(wl, np, args) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "wonhamlab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "package_version": wl.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": nproc(),
        "blas_threads": BLAS_THREADS,
    }


def measure_setup(args, out_dir: Path) -> list:
    """(wall, reference) seconds of the set-up in fresh processes: importing the
    package and doing the workload's program-side set-up."""
    script = SETUP_SCRIPT.format(src=str(SRC), bench=str(BENCH_DIR), workload=args.workload,
                                 seed=args.seed, out=str(out_dir))
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run([sys.executable, "-c", script], cwd=ROOT, check=True,
                               stdout=subprocess.PIPE, text=True)
        wall, ref = (float(x) for x in child.stdout.split()[-2:])
        times.append((wall, ref))
    return times


class OpRecord(NamedTuple):
    name: str
    wall_s: float
    ref_s: float  # reference seconds, see speed.py
    outcome: object


def run_pass(workload, sampler, recorder=None) -> dict:
    """One pass over the workload's operations, each timed by the speed sampler,
    with the recorder's wrappers installed when one is given."""
    from workloads import run_op

    records = []
    with recorder if recorder is not None else contextlib.nullcontext():
        for name, fn in workload.ops():
            outcome, wall, ref = sampler.time(lambda fn=fn: run_op(fn))
            records.append(OpRecord(name, wall, ref, outcome))
    return {"traced": recorder is not None, "pass_s": sum(r.wall_s for r in records),
            "pass_ref_s": sum(r.ref_s for r in records), "ops": records, "recorder": recorder}


def run_passes(wl, workload, seconds: float, trace: bool, min_passes: int = MIN_PASSES) -> list:
    """Closed loop: passes back to back until the next one would overrun ``seconds``."""
    from speed import SpeedSampler
    from tracing import Recorder

    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        recorder = Recorder(wl) if trace and len(passes) % 2 == 1 else None
        with SpeedSampler(on_sample=recorder.foreign if recorder else None) as sampler:
            passes.append(run_pass(workload, sampler, recorder))
        typical = statistics.median(p["pass_s"] for p in passes)
        if len(passes) >= min_passes and time.perf_counter() + typical > deadline:
            return passes


def summarize(samples: list) -> dict:
    """Median, sample count, and the highest percentile with at least ten samples beyond it."""
    out = {"median": statistics.median(samples), "n": len(samples)}
    for pct in (99.9, 99.0, 90.0):
        if len(samples) * (100.0 - pct) / 100.0 >= 10.0:
            out[f"p{pct:g}"] = statistics.quantiles(samples, n=1000, method="inclusive")[round(pct * 10) - 1]
            break
    return out


def end_to_end(passes, setup_times, attempted: int, failed: int) -> dict:
    """End-to-end metrics; times are reference seconds (see speed.py)."""
    untraced = [p for p in passes if not p["traced"]]
    cells = [sum(r.outcome.path_cells for r in p["ops"]) / p["pass_ref_s"] for p in untraced]
    return {
        "setup_s": (statistics.median(ref for _, ref in setup_times), "s"),
        "pass_s": (statistics.median(p["pass_ref_s"] for p in untraced), "s"),
        "path_cells_per_s": (statistics.median(cells), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "ok_ops_share": ((attempted - failed) / attempted, "ratio"),
    }


def _per_ns(seconds: float, work: int) -> float:
    return 1e9 * seconds / work if work else 0.0


def layer_metrics(rec, pass_s: float, records) -> dict:
    """Per-layer metrics of one traced pass."""
    ops = [r.outcome for r in records]
    st = rec.stats
    batch, cell_m = st["simulate.batch"], st["filters.cell_matrix"]
    narrow, wide = st["filters.cell.narrow"], st["filters.cell.wide"]
    cell = rec.merged("filters.cell.narrow", "filters.cell.wide")
    signal = st["simulate.signal"]
    probe = st["experiments.probe"]
    m = {
        "simulate.batch.calls": (batch.calls, "count"),
        "simulate.batch.self_s": (batch.self_s, "s"),
        "simulate.batch.paths": (batch.work, "count"),
        "simulate.batch.distinct_ratio": (rec.distinct_ratio("simulate.batch"), "ratio"),
        "simulate.signal.self_s": (signal.self_s, "s"),
        "simulate.signal.jumps_per_path": (rec.jumps / signal.calls if signal.calls else 0.0, "count"),
        "simulate.observations.self_s": (st["simulate.observations"].self_s, "s"),
        "filters.cell.calls": (cell.calls, "count"),
        "filters.cell.self_s": (cell.self_s, "s"),
        "filters.cell.path_cells": (cell.work, "count"),
        "filters.cell.bytes_computed": (cell.nbytes, "B"),
        "filters.cell.narrow.self_s": (narrow.self_s, "s"),
        "filters.cell.narrow.ns_per_path_cell": (_per_ns(narrow.self_s, narrow.work), "ns"),
        "filters.cell.wide.self_s": (wide.self_s, "s"),
        "filters.cell.wide.ns_per_path_cell": (_per_ns(wide.self_s, wide.work), "ns"),
        "filters.cell_matrix.calls": (cell_m.calls, "count"),
        "filters.cell_matrix.self_s": (cell_m.self_s, "s"),
        "filters.cell_matrix.path_cells": (cell_m.work, "count"),
        "filters.cell_matrix.ns_per_path_cell": (_per_ns(cell_m.self_s, cell_m.work), "ns"),
        "filters.propagators.self_s": (st["filters.propagators"].self_s, "s"),
        "filters.trajectory.self_s": (st["filters.trajectory"].self_s, "s"),
        "filters.flow.self_s": (st["filters.flow"].self_s, "s"),
        "filters.euler.self_s": (st["filters.euler"].self_s, "s"),
        "filters.flow.ill_conditioned_warnings": (sum(o.warnings for o in ops), "count"),
        "experiments.probe.calls": (probe.calls, "count"),
        "experiments.probe.self_s": (probe.self_s, "s"),
        "experiments.probe.distinct_ratio": (rec.distinct_ratio("experiments.probe"), "ratio"),
    }
    for exp in ("robustness", "forgetting", "inverse_moment", "convergence_sweep",
                "derivative_audit", "integrator_refinement"):
        m[f"experiments.{exp}.self_s"] = (st[f"experiments.{exp}"].self_s, "s")
    m["experiments.escalations"] = (sum(1 for o in ops if o.escalated), "count")
    m["experiments.known_red_violations"] = (sum(o.known_red for o in ops), "count")
    for span in ("sensitivity.derivative", "sensitivity.inequality", "sensitivity.batch_algebra",
                 "models.constants", "config.load", "cli.write_report"):
        m[f"{span}.self_s"] = (st[span].self_s, "s")
    m["cli.write_report.bytes"] = (rec.report_bytes, "B")
    m["trace.coverage"] = ((rec.root_s - rec.foreign_s) / pass_s, "ratio")
    return m


def per_layer(passes, expected) -> tuple[dict, list]:
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    problems = []
    per_pass = []
    for p in traced:
        rec = p["recorder"]
        missed = sorted(t for t in expected if rec.calls_by_target.get(t, 0) == 0)
        if missed:
            problems.append(f"wrapped names recorded no call: {', '.join(missed)}")
        coverage = (rec.root_s - rec.foreign_s) / p["pass_s"]
        if not coverage >= MIN_COVERAGE:
            problems.append(f"spans cover {coverage:.4f} of the pass, below {MIN_COVERAGE}")
        per_pass.append(layer_metrics(rec, p["pass_s"], p["ops"]))
    metrics = {name: (statistics.median(pp[name][0] for pp in per_pass), unit)
               for name, (_, unit) in per_pass[0].items()}
    overhead = (statistics.median(p["pass_ref_s"] for p in traced)
                - statistics.median(p["pass_ref_s"] for p in untraced))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, problems


def op_summaries(passes) -> dict:
    """Wall and reference time of each operation over the untraced passes."""
    walls, refs = {}, {}
    for p in passes:
        if not p["traced"]:
            for r in p["ops"]:
                walls.setdefault(r.name, []).append(r.wall_s)
                refs.setdefault(r.name, []).append(r.ref_s)
    return {name: {"wall_s": summarize(walls[name]), "reference_s": summarize(refs[name])}
            for name in walls}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wonhamlab" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'wonhamlab'}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import numpy as np
    import wonhamlab as wl
    import wonhamlab.cli  # noqa: F401  (the report writer the CLI uses)
    import wonhamlab.config  # noqa: F401

    if Path(wl.__file__).resolve().parent != (SRC / "wonhamlab").resolve():
        print(f"error: imported wonhamlab from {wl.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from checks import REFERENCE_FILE, REFERENCE_SEED, check_passes, derive_reference
    from tracing import TARGETS
    from workloads import WORKLOADS

    covered = {t for cls in WORKLOADS.values() for t in cls.expected}
    uncovered = {f"{m}.{a}" for m, a, _, _ in TARGETS} - covered
    if uncovered:
        print(f"error: wrapped names with no workload expected to hit them: {sorted(uncovered)}",
              file=sys.stderr)
        return 2

    out_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](wl, args.seed, out_dir)
    workload.write_inputs()
    setup_times = measure_setup(args, out_dir)
    workload.prepare()

    passes = run_passes(wl, workload, args.seconds, bool(args.trace))
    reference = None
    if args.seed == REFERENCE_SEED and not args.write_reference:
        reference = json.loads(REFERENCE_FILE.read_text())[args.workload]
    failures = check_passes(passes, reference)
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(1 for p in passes for r in p["ops"] if r.outcome.failures)
    if args.trace:
        metrics, problems = per_layer(passes, workload.expected)
    else:
        metrics, problems = end_to_end(passes, setup_times, attempted, failed), []

    ops = op_summaries(passes)
    samples = {"setup_s": len(setup_times), "traced passes": sum(p["traced"] for p in passes),
               "untraced passes": sum(not p["traced"] for p in passes)}
    known_red = {r.name: r.outcome.known_red for r in passes[0]["ops"]}
    record = {
        "provenance": provenance(wl, np, args),
        "setup_s": [{"seconds": wall, "reference_seconds": ref} for wall, ref in setup_times],
        "passes": [{"traced": p["traced"], "seconds": p["pass_s"], "reference_seconds": p["pass_ref_s"],
                    "ops": {r.name: r.wall_s for r in p["ops"]},
                    "reference_ops": {r.name: r.ref_s for r in p["ops"]}} for p in passes],
        "operations": ops,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        # Wall-clock medians, to cross-check the reference seconds above.
        "wall_clock": {"setup_s": statistics.median(w for w, _ in setup_times),
                       "pass_s": statistics.median(p["pass_s"] for p in passes if not p["traced"])},
        "samples": samples,
        "failures": failures,
        "trace_problems": problems,
        "known_red": known_red,
    }
    (out_dir / "result.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if args.write_reference:
        if args.seed != REFERENCE_SEED or failures:
            print("error: a reference needs a clean run at the reference seed", file=sys.stderr)
            return 1
        stored = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.is_file() else {}
        stored[args.workload] = derive_reference(wl, workload, passes[0],
                                                 lambda: run_passes(wl, workload, 0.0, False, min_passes=1)[0])
        REFERENCE_FILE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")

    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    for name, times in ops.items():
        line = (f"op {name}: median {times['wall_s']['median']:.4f} s wall, "
                f"{times['reference_s']['median']:.4f} s reference over {times['wall_s']['n']} passes")
        line += "".join(f", {k} {v:.4f} s wall" for k, v in times["wall_s"].items() if k.startswith("p"))
        print(line)
    print("medians over " + ", ".join(f"{n} {what}" for what, n in samples.items()))
    print(f"wall clock: setup median {record['wall_clock']['setup_s']:.4f} s, "
          f"untraced pass median {record['wall_clock']['pass_s']:.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for line in failures + problems:
        print(f"FAILED {line}")
    for name, count in known_red.items():
        if count:
            print(f"KNOWN-RED {name}: {count} violations in rows not counted as failures")
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
