"""Command line of the benchmark.

    python -m bench [run] [--workload NAME ...] [--seed N] [--seconds T]
                    [--trace [0|1]] [--smoke] [--out FILE]
    python -m bench compare PARENT.json CHANGE.json
    python -m bench calibrate [--seconds T] [--smoke]

``run`` (the default) prints every metric with its unit and sample count,
then one JSON object as the last line; it exits 1 when an op or a
correctness check failed, and 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import signal
import sys
from typing import List, Optional, Sequence

from bench import compare, driver


def _parse_run(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m bench run")
    parser.add_argument(
        "--workload", action="append", choices=driver.ORDER,
        help="workload to run (repeatable; default: all five)",
    )
    parser.add_argument("--seed", type=int, default=driver.DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measured window per run (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="per-layer traced run instead of the end-to-end one",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="toy sizes, for the tests"
    )
    parser.add_argument("--out", help="append this run to a JSON file")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:])
    calibrating = argv[:1] == ["calibrate"]
    if argv[:1] in (["run"], ["calibrate"]):
        argv = argv[1:]
    args = _parse_run(argv)
    if not (driver.ROOT / "src" / "repro").is_dir():
        print(
            f"bench: no program sources under {driver.ROOT / 'src'}",
            file=sys.stderr,
        )
        return 2
    workloads = args.workload or list(driver.ORDER)
    seconds = args.seconds if args.seconds is not None else driver.default_seconds()
    if calibrating:
        return driver.calibrate(workloads, seconds=seconds, smoke=args.smoke)
    return driver.run(
        workloads,
        seed=args.seed,
        seconds=seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
        out=args.out,
    )


if __name__ == "__main__":
    # Exit normally on SIGTERM, so a running worker is stopped first.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
