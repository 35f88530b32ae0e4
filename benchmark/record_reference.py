"""Record the reference results of every pool unit into reference.json.

Run from the repository root, at the commit whose behaviour is the
reference:

    python3 benchmark/record_reference.py

It solves every unit any run can draw (about five minutes on a 2-CPU
machine), one process, and keeps each unit's objectives, selection digests
and solve time; runs use the time only to stratify the pool.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    omega = workloads.resolve()
    units = {}
    for name in workloads.WORKLOADS:
        pool = workloads.pool_units(name)
        instances = workloads.make_instances(pool)
        for unit in pool:
            start = time.perf_counter()
            results = workloads.solve(unit, instances[unit.instance_key], omega)
            elapsed = time.perf_counter() - start
            entry = {"results": workloads.summary(results),
                     "seconds": round(elapsed, 3)}
            if unit.kind == "exact":
                entry["iterations"] = results[0].iterations
            units[unit.key] = entry
            print(unit.key, json.dumps(entry), flush=True)
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True, cwd=HERE,
                            check=False).stdout.strip()
    lines = [f"  {json.dumps(key)}: {json.dumps(entry)}"
             for key, entry in units.items()]
    (HERE / "reference.json").write_text(
        f'{{"rho": "{workloads.RHO}", "omega": "{omega}", "commit": "{commit}",\n'
        ' "units": {\n' + ",\n".join(lines) + "\n}}\n")


if __name__ == "__main__":
    main()
