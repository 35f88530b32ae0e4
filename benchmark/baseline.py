"""Measure every workload over several seeds and write baseline.json.

    python3 benchmark/baseline.py --seeds 1-10 [--workload exact-sc ...]

For each workload it runs ``run.py`` untraced once per seed, then traced
once for the first seed, and records each end-to-end metric's values,
median, quartiles and spread (quartile distance over the median), the
per-layer metrics, the tracing overhead (traced minus untraced ``wall_s`` of
the first seed) and the machine it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

import numpy as np

from selfcheck import result_of

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    doc = {"machine": {"cpus": os.cpu_count(), "platform": platform.platform(),
                       "python": platform.python_version(),
                       "numpy": np.__version__},
           "run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workload or [w["name"] for w in config["workloads"]]:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            result = result_of(workload, seed, seconds, 0)
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: {result['failed']} units failed")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  flush=True)
        summary = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            summary[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / statistics.median(vals),
                             "values": vals}
        traced = result_of(workload, args.seeds[0], seconds, 1)
        per_layer = {name: m["value"] for name, m in traced["metrics"].items()}
        doc["workloads"][workload] = {
            "end_to_end": summary, "per_layer": per_layer,
            "trace_overhead_s": per_layer["trace.wall_s"] - values["wall_s"][0]}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
