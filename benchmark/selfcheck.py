"""Self-checks of the benchmark itself.

    python3 benchmark/selfcheck.py [--seed 7] [--workload exact-sc ...]

1. A deliberately corrupted reference (objective off by one, or the same
   objective with another selection digest) is counted as a failed unit.
2. For each workload, two traced runs of one seed report identical count
   metrics, so count claims can rest on them.

Exits with code 1 if a check fails.
"""

from __future__ import annotations

import argparse
import copy
import json
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def corrupted_reference_fails(wl, seed: int) -> bool:
    reference = json.loads((HERE / "reference.json").read_text())["units"]
    unit = wl.draw_units("bounds-n100", seed, reference)[0]
    instances = wl.make_instances([unit])
    omega = wl.resolve()
    off_by_one = copy.deepcopy(reference)
    off_by_one[unit.key]["results"][0][0] += 1
    other_digest = copy.deepcopy(reference)
    other_digest[unit.key]["results"][1][1] = "0" * 16
    ok = True
    for label, ref, expected in (("true reference", reference, 0),
                                 ("objective off by one", off_by_one, 1),
                                 ("other selection digest", other_digest, 1)):
        failed = run.sweep(wl, [unit], instances, omega, ref, {unit.key: []})
        good = failed == expected
        ok &= good
        print(f"{unit.key} with {label}: {failed}/1 failed "
              f"({'as expected' if good else 'UNEXPECTED'})")
    return ok


def result_of(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def counts_repeat(workload: str, seed: int, seconds: float) -> bool:
    first, second = (result_of(workload, seed, seconds, 1) for _ in range(2))
    counts = {name: m["value"] for name, m in first["metrics"].items()
              if m["unit"] == "count"}
    again = {name: second["metrics"][name]["value"] for name in counts}
    same = counts == again
    print(f"{workload} seed {seed}: {len(counts)} count metrics "
          f"{'repeat exactly' if same else 'DIFFER'}")
    for name in counts:
        print(f"  {name}: {counts[name]}"
              + ("" if counts[name] == again[name] else f" then {again[name]}"))
    return same and first["correct"] and second["correct"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    wl = run.import_workloads()
    ok = corrupted_reference_fails(wl, args.seed)
    for workload in args.workload or wl.WORKLOADS:
        ok &= counts_repeat(workload, args.seed, args.seconds)
    print("selfcheck " + ("passed" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
