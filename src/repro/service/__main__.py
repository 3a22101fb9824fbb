"""CLI entry point: ``python -m repro.service once``.

``once`` serves a single request cold (no residency) and prints a JSON
summary.  It is both a smoke check and the process-per-request baseline
that ``tests/service/test_service.py`` measures the warm daemon against.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.service.client import run_cold_request
from repro.service.request import AnalysisRequest


def _once(args: argparse.Namespace) -> int:
    """Serve one cold request and print its summary JSON."""
    request = AnalysisRequest(
        circuit=args.circuit,
        kernel=args.kernel,
        r=args.r,
        num_samples=args.num_samples,
        seed=args.seed,
        chunk_size=args.chunk_size,
    )
    result = run_cold_request(request)
    if not result.ok or result.sta is None:
        print(
            json.dumps({"status": result.status.value, "error": result.error})
        )
        return 1
    print(
        json.dumps(
            {
                "status": result.status.value,
                "num_samples": result.num_samples,
                "mean_worst_delay_ps": result.sta.mean_worst_delay(),
                "std_worst_delay_ps": result.sta.std_worst_delay(),
            },
            sort_keys=True,
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.service`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="SSTA service: cold single-shot runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    once = sub.add_parser("once", help="serve one request cold and exit")
    once.add_argument("--circuit", required=True)
    once.add_argument("--kernel", default="gaussian")
    once.add_argument("--r", type=int, default=None)
    once.add_argument("--num-samples", type=int, default=512)
    once.add_argument("--seed", type=int, default=0)
    once.add_argument("--chunk-size", type=int, default=None)
    once.set_defaults(func=_once)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI dispatch; returns the process exit code."""
    args = build_parser().parse_args(argv)
    result = args.func(args)
    return int(result)


if __name__ == "__main__":
    sys.exit(main())
