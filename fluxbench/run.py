"""The repository benchmark: one workload per run, one JSON line of results.

Run from the repository root::

    python3 fluxbench/run.py --workload sweep --seed 3 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
separate traced run and prints the per-layer metrics instead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every output check passed.  See ``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from fluxbench import stats  # noqa: E402
from fluxbench.calibration import REFERENCE_S, Calibrator  # noqa: E402
from fluxbench.measure import (  # noqa: E402
    MIN_CYCLES, Checks, timed_iteration, warm_up)

#: Fresh-process set-up probes measured per run (after one discarded
#: probe that only imports, absorbing bytecode compilation).
SETUP_PROBES = 3
#: Per-migration latency percentiles need this many samples beyond them.
TAIL_SAMPLES = 10
PROBE_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "sim_p50_s": "s", "sim_p95_s": "s", "migrated_frac": "ratio",
    "fig12_rel_err": "ratio", "bundle_kb": "KB",
}


def clean_environment() -> Dict[str, str]:
    """This process's environment minus every ``FLUX_*`` knob."""
    return {key: value for key, value in os.environ.items()
            if not key.startswith("FLUX_")}


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "fleet", "bundle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", choices=("import", "full"),
                        default=None, help=argparse.SUPPRESS)
    parser.add_argument("--probe-scratch", default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def import_simulator() -> None:
    """Import every simulator module a workload or the tracer touches."""
    import repro.core.migration.postmortem  # noqa: F401
    import repro.experiments.bench  # noqa: F401
    import repro.experiments.fig12  # noqa: F401
    import repro.experiments.fleet  # noqa: F401
    import repro.sim.diffing  # noqa: F401


def make_workload(args: argparse.Namespace, scratch: Path):
    from fluxbench.workloads import WORKLOADS
    return WORKLOADS[args.workload](ROOT, args.seed, scratch)


# -- set-up -------------------------------------------------------------------


def probe_setup(args: argparse.Namespace, scratch: Path) -> int:
    """Child side of a set-up probe: get ready, print the ready instant.

    ``time.monotonic`` is the system-wide monotonic clock on Linux, so
    the parent can subtract its own reading taken before the spawn.
    """
    import_simulator()
    if args.probe_setup == "full":
        workload = make_workload(args, scratch)
        workload.prepare()
        workload.run(workload.warm_up_seed)
    print(f"READY {time.monotonic()!r}", flush=True)
    return 0


def measure_setup(args: argparse.Namespace, scratch: Path
                  ) -> Tuple[List[float], List[str]]:
    """Set-up seconds of each fresh-process probe (discarded one first)."""
    samples: List[float] = []
    problems: List[str] = []
    for index in range(SETUP_PROBES + 1):
        mode = "import" if index == 0 else "full"
        probe_dir = scratch / f"probe-{index}"
        probe_dir.mkdir()
        command = [sys.executable, str(HERE / "run.py"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", "0",
                   "--probe-setup", mode, "--probe-scratch", str(probe_dir)]
        started = time.monotonic()
        try:
            done = subprocess.run(command, cwd=ROOT, env=clean_environment(),
                                  capture_output=True, text=True,
                                  timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            problems.append(f"set-up probe {index} timed out")
            continue
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines or \
                not lines[-1].startswith("READY "):
            problems.append(f"set-up probe {index} failed "
                            f"(exit {done.returncode}): "
                            f"{done.stderr.strip()[-400:]}")
            continue
        if index:
            samples.append(float(lines[-1].split()[1]) - started)
    return samples, problems


# -- measuring ----------------------------------------------------------------


def sim_metrics(workload, checks: Checks) -> Tuple[Dict[str, float], str]:
    """Latency percentiles and migrated fraction over the seed cycle."""
    latencies: List[float] = []
    attempted = migrated = 0
    for seed in workload.seeds:
        outcome = checks.outcomes[seed]
        latencies.extend(outcome.latencies)
        attempted += outcome.attempted
        migrated += outcome.migrated
    tail = stats.beyond(latencies, 95)
    if tail < TAIL_SAMPLES:
        checks.fail(f"only {tail} latency samples beyond p95 "
                    f"(need {TAIL_SAMPLES})")
    metrics = {
        "sim_p50_s": stats.nearest_rank(latencies, 50),
        "sim_p95_s": stats.nearest_rank(latencies, 95),
        "migrated_frac": migrated / attempted,
    }
    note = (f"{len(latencies)} migrations over seeds {workload.seeds}, "
            f"{tail} beyond p95; {migrated}/{attempted} demands migrated")
    return metrics, note


def _listing(values: List[float]) -> str:
    return ", ".join(f"{value:.4f}" for value in values)


def run_untraced(args: argparse.Namespace, workload, checks: Checks,
                 calibrator) -> Dict[str, float]:
    from fluxbench.workloads import HELD_OUT_SEEDS, fig12_error
    print(f"set-up: {SETUP_PROBES} fresh-process probes after one "
          f"discarded import-only probe", flush=True)
    raw_probes, problems = measure_setup(args, workload.scratch)
    for problem in problems:
        checks.fail(problem)
    warm_up(workload, checks)

    calibrator.mark()
    raw_cycles: List[float] = []
    cycles: List[float] = []
    started = time.monotonic()
    while len(cycles) < MIN_CYCLES or time.monotonic() - started \
            < args.seconds:
        raw_total = total = 0.0
        for seed in workload.seeds:
            raw, elapsed, factor = timed_iteration(workload, seed,
                                                   calibrator)
            raw_total += elapsed
            total += elapsed * factor
            checks.record(seed, workload.examine(seed, raw))
            del raw
        raw_cycles.append(raw_total)
        cycles.append(total)
    rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
              - calibrator.resident_bytes) / 2 ** 20
    # A probe is too short and too cold for a point of its own (a pass
    # in a fresh process ran up to 2x off); the run's median point is
    # the host speed over the whole run, probes included.
    run_factor = calibrator.run_factor()
    probes = [seconds * run_factor for seconds in raw_probes]

    sim, sim_note = sim_metrics(workload, checks)
    fig12 = fig12_error()
    metrics = {
        "setup_s": stats.median(probes) if probes else None,
        "wall_s": stats.median(cycles) / len(workload.seeds),
        "peak_rss_mb": rss_mb,
        **sim,
        "fig12_rel_err": fig12,
        "bundle_kb": (workload.bundle_bytes or 0) / 1024.0,
    }
    notes = {
        "setup_s": (f"host at the run's reference speed; median of "
                    f"probes {_listing(probes)}, raw {_listing(raw_probes)}"),
        "wall_s": (f"host at reference speed; median of {len(cycles)} "
                   f"timed cycles of {len(workload.seeds)} iterations, per "
                   f"iteration; raw "
                   f"{stats.median(raw_cycles) / len(workload.seeds):.4f}"),
        "peak_rss_mb": (f"host; measuring process (ru_maxrss) less "
                        f"{calibrator.resident_bytes / 2 ** 20:.1f} MB of "
                        f"calibration data"),
        "sim_p50_s": "sim; " + sim_note,
        "sim_p95_s": "sim; nearest-rank, same samples",
        "migrated_frac": "sim; refused, rejected, shed and faulted "
                         "demands count against it",
        "fig12_rel_err": (f"sim vs the paper's Fig. 12 average (7.88 s), "
                          f"held-out seeds {list(HELD_OUT_SEEDS)}"),
        "bundle_kb": f"{workload.bundle_kind} run bundle as .tar.gz",
    }
    for name, value in metrics.items():
        shown = "failed" if value is None else f"{value:.6f}"
        print(f"{name:<14} {shown:>14} {END_TO_END_UNITS[name]:<5} "
              f"({notes[name]})")
    if workload.name == "sweep":
        paper = workload.paper_average_s
        totals = [latency for seed in workload.seeds
                  for latency in checks.outcomes[seed].latencies]
        cycle = abs(sum(totals) / len(totals) - paper) / paper
        print(f"fig12 error at tuning seed 0: "
              f"{abs(workload.seed0_average_s - paper) / paper:.6f}; "
              f"at this run's seeds {workload.seeds}: {cycle:.6f}")
    else:
        print("fig12_rel_err is the Fig. 12 sweep's error; the fleet has "
              "no reference in the paper, so no error figure is given "
              "for it")
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro").is_dir() or \
            not (ROOT / "BENCH_sweep.json").is_file():
        print("fluxbench: run from the repository root: src/repro and "
              "BENCH_sweep.json are missing here", file=sys.stderr)
        return 2
    for key in [key for key in os.environ if key.startswith("FLUX_")]:
        del os.environ[key]
    sys.path.insert(0, str(ROOT / "src"))
    if args.probe_setup:
        return probe_setup(args, Path(args.probe_scratch))

    scratch = ROOT / ".fluxbench_scratch" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        import_simulator()
        workload = make_workload(args, scratch)
        checks = Checks()
        print(f"workload {workload.name}, seed {args.seed}, seed cycle "
              f"{workload.seeds}, {args.seconds:g} s", flush=True)
        calibrator = Calibrator()
        if args.trace:
            from fluxbench.traced import run_traced
            metrics, units = run_traced(args, workload, checks, calibrator)
        else:
            metrics = run_untraced(args, workload, checks, calibrator)
            units = END_TO_END_UNITS
        print(f"calibration: {len(calibrator.points)} points, median "
              f"{stats.median(calibrator.points):.4f} s (reference "
              f"{REFERENCE_S} s)")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    for problem in checks.problems:
        print(f"CHECK FAILED: {problem}")
    correct = not checks.problems
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
