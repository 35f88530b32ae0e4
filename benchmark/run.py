"""sockp benchmark: run one workload for one seed and print its metrics.

    python3 benchmark/run.py --workload bounds-n100 --seed 1 --seconds 32 --trace 0

Run from the repository root; the library is imported from ``src/``.  The
run draws its fixed unit set from ``--seed`` (see ``workloads.py``), solves
it in passes, one process and one thread, until the next pass would end
after ``--seconds`` (at least one pass), and checks every result against
``reference.json``.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median time of a
pass over the unit set), ``solve_s_p50`` and ``solve_s_tail`` (Harrell-Davis
estimates of the median and of the highest percentile with ten units beyond
it, over per-unit times; a unit's time is its median over the passes),
``peak_rss_mb`` and ``setup_s`` (median of five set-ups, each in a fresh
interpreter: import, instance generation and omega resolution).  The fail
ratio is ``failed`` / ``attempted``: a unit fails if it raises, differs from
the reference or breaks a validity check.
``--trace 1`` wraps the calls into each sockp module, reports the per-layer
metrics of ``spans.py`` and writes the spans to ``benchmark/traces/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 5
TAIL_BEYOND = 10
HD_STEPS = 1000  # integration steps per order statistic


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_workloads():
    """Import the benchmark's workloads, and through them sockp from src/."""
    if not (SRC / "sockp" / "__init__.py").is_file():
        sys.exit(f"sockp sources not found in {SRC}")
    sys.path.insert(0, str(SRC))
    import sockp
    if Path(sockp.__file__).resolve().parent != (SRC / "sockp").resolve():
        sys.exit(f"sockp was imported from {sockp.__file__}, not from {SRC}")
    import workloads
    return workloads


def measure_setup(args) -> list[float]:
    """Set-up times of fresh interpreters running ``--setup-only``."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return times


def sweep(wl, units, instances, omega, reference, unit_times, tracer=None):
    """Solve and check each unit once, appending its time; returns failures."""
    failed = 0
    for unit in units:
        if tracer is not None:
            tracer.unit = unit.key
        inst = instances[unit.instance_key]
        t0 = time.perf_counter()
        try:
            results = wl.solve(unit, inst, omega)
        except Exception:
            print(f"{unit.key}: solve raised", file=sys.stderr)
            traceback.print_exc()
            failed += 1
            continue
        unit_times[unit.key].append(time.perf_counter() - t0)
        problems = wl.check(unit, results, inst, omega, reference)
        for problem in problems:
            print(problem, file=sys.stderr)
        failed += bool(problems)
    if tracer is not None:
        tracer.unit = None
    return failed


def run_passes(wl, units, instances, omega, reference, seconds, tracer):
    """Full passes while the next one fits in ``seconds``, at least one.

    Returns the pass walls, every unit's times, and attempted and failed
    solve counts.
    """
    walls = []
    unit_times = {u.key: [] for u in units}
    attempted = failed = 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + walls[-1] <= seconds:
        pass_start = time.perf_counter()
        failed += sweep(wl, units, instances, omega, reference, unit_times, tracer)
        attempted += len(units)
        walls.append(time.perf_counter() - pass_start)
    return walls, unit_times, attempted, failed


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of ``values``.

    The Beta((n+1)p, (n+1)(1-p))-weighted mean of all order statistics
    (Harrell and Davis, Biometrika 69, 1982).  On a few dozen per-unit times
    of mixed size it is far steadier than a single order statistic, which
    jumps between size classes from one seed to the next.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = HD_STEPS * n
    t = (np.arange(steps) + 0.5) / steps
    cdf = np.concatenate(
        ([0.0], np.cumsum(np.exp((a - 1) * np.log(t) + (b - 1) * np.log1p(-t)))))
    return float(np.diff(cdf[::HD_STEPS]) @ x / cdf[-1])


def main(argv=None) -> None:
    args = parse_args(argv)
    t0 = time.perf_counter()
    wl = import_workloads()
    import_s = time.perf_counter() - t0
    if args.workload not in wl.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; one of {wl.WORKLOADS}")
    reference = json.loads((HERE / "reference.json").read_text())["units"]
    units = wl.draw_units(args.workload, args.seed, reference)

    if args.setup_only:
        t1 = time.perf_counter()
        wl.make_instances(units)
        wl.resolve()
        print(json.dumps({"setup_s": import_s + time.perf_counter() - t1}))
        return

    setups = [] if args.trace else measure_setup(args)
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    with tracer.installed(wl) if tracer else nullcontext():
        omega = wl.resolve()
        instances = wl.make_instances(units)
        walls, unit_times, attempted, failed = run_passes(
            wl, units, instances, omega, reference, args.seconds, tracer)

    print(f"workload {args.workload}, seed {args.seed}: {len(units)} units, "
          f"{len(walls)} pass(es), omega {omega}")
    per_unit = {}
    for key, samples in unit_times.items():
        if samples:
            per_unit[key] = statistics.median(samples)
            print(f"  {key:32s} {per_unit[key]:.4f} s")
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:g}")

    if tracer is not None:
        traces = HERE / "traces"
        traces.mkdir(exist_ok=True)
        tracer.write(traces / f"{args.workload}-seed{args.seed}.jsonl")
        metrics = spans.layer_metrics(tracer.spans, walls)
    else:
        times = list(per_unit.values())
        if len(times) <= TAIL_BEYOND:
            sys.exit(f"only {len(times)} units solved; no tail percentile")
        pct = 100.0 * (len(times) - TAIL_BEYOND) / len(times)
        print(f"solve_s_tail is p{pct:.1f} of {len(times)} per-unit times "
              f"({TAIL_BEYOND} beyond it)")
        print("setup_s samples " + " ".join(f"{s:.4f}" for s in setups))
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "solve_s_p50": (hd_quantile(times, 0.5), "s"),
            "solve_s_tail": (hd_quantile(times, pct / 100), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MiB"),
            "setup_s": (statistics.median(setups), "s"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name:30s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))


if __name__ == "__main__":
    main()
