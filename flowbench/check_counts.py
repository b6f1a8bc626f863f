"""Check that the traced run's work counts repeat exactly.

Runs ``run.py --trace 1`` twice on one workload and seed and compares
every per-layer count (work per op and hit/clamp ratios).  Timings are
not compared.  Exits 1 if any count differs or either run is incorrect.

    python3 flowbench/check_counts.py --workload fig4_optimize --seed 0 --seconds 5
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import COUNTS

HERE = Path(__file__).resolve().parent
#: Ratios of counts; like the counts, they must repeat exactly.
COUNT_RATIOS = ("power.clamp_ratio", "tech.char_hit_ratio", "power.corner_hit_ratio")


def traced_counts(workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: traced run is not correct")
    return {
        name: result["metrics"][name]["value"]
        for name in (*COUNTS, *COUNT_RATIOS)
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    args = parser.parse_args()
    first = traced_counts(args.workload, args.seed, args.seconds)
    second = traced_counts(args.workload, args.seed, args.seconds)
    differ = [name for name in first if first[name] != second[name]]
    for name in first:
        mark = "DIFFERS" if name in differ else "same"
        print(f"  {name:<28} {first[name]!r:>22} {second[name]!r:>22}  {mark}")
    print(f"{args.workload} seed {args.seed}: "
          + (f"{len(differ)} counts differ" if differ else "all counts identical"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
