"""Wall time of CLI verbs in fresh interpreters (startup included).

Runs each verb at its defaults as ``python -m repro <verb>`` in a new
interpreter, ``--runs`` times, plus a bare ``python -c pass`` row, and
prints the median wall time per verb in milliseconds, raw and
normalised to the reference host speed with flowbench's calibration
kernel (``flowbench/calibrate.py``, fastest of three timings just
before and just after each run).  Given several ``--src`` trees, the
runs alternate between them so host drift falls on each alike::

    python benchmarks/perf/verb_walltime.py --runs 7
    python benchmarks/perf/verb_walltime.py --src old/src --src src

This is the table under "Startup" in ``docs/performance.md``.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "flowbench"))

import calibrate  # noqa: E402

#: Rows of the table: label -> interpreter arguments.
VERBS = {
    "bare interpreter": ["-c", "pass"],
    "--help": ["-m", "repro", "--help"],
    **{
        verb: ["-m", "repro", verb]
        for verb in (
            "optimize", "surface", "variation", "contour", "compare",
            "characterize", "margins", "shutdown",
        )
    },
}


def _kernel_seconds() -> float:
    """Calibration kernel time, fastest of three (one run is noisy)."""
    return min(calibrate.kernel_seconds() for _ in range(3))


def _timed(src: str, arguments) -> tuple:
    """(raw, normalised) seconds of one fresh interpreter."""
    before = _kernel_seconds()
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, *arguments],
        check=True,
        stdout=subprocess.DEVNULL,
        env={**os.environ, "PYTHONPATH": src},
    )
    elapsed = time.perf_counter() - start
    return elapsed, elapsed * calibrate.factor(before, _kernel_seconds())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=7)
    parser.add_argument(
        "--src", action="append", default=None,
        help="toolkit source tree; repeat to compare trees "
        "(default: this checkout's src/)",
    )
    args = parser.parse_args()
    trees = args.src or [str(ROOT / "src")]
    for src in trees:  # untimed: lets Python write the bytecode cache
        for arguments in VERBS.values():
            _timed(src, arguments)
    print("| verb | " + " | ".join(
        f"{name} raw ms | {name} normalised ms"
        for name in (Path(src).resolve().parent.name for src in trees)
    ) + " |")
    for label, arguments in VERBS.items():
        samples = {src: [] for src in trees}
        for _ in range(args.runs):
            for src in trees:
                samples[src].append(_timed(src, arguments))
        cells = []
        for src in trees:
            raw, normalised = zip(*samples[src])
            cells.append(f"{1e3 * statistics.median(raw):.0f}")
            cells.append(f"{1e3 * statistics.median(normalised):.0f}")
        print(f"| {label} | " + " | ".join(cells) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
