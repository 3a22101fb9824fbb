"""Compare a parent's runs with a change's, per workload and end-to-end metric.

    python -m bench compare PARENT.json CHANGE.json [CHANGE2.json ...]

Each file holds runs appended by ``python -m bench run --out FILE``;
run the two commits alternately, switching which goes first, so run
``i`` of each side forms pair ``i``.  Each workload × metric gets one
verdict, using the bounds in ``BENCHMARK.json``:

- ``better``: the gain rule holds — at least ``MIN_PAIRS`` pairs, the
  change wins at least ``WIN_SHARE`` of them (ties count for neither),
  and the medians differ by more than the parent's interquartile range;
- ``unresolved``: the parent's own spread (IQR over median) is wider
  than the bound, and not every change run beats every parent run;
- ``worse``: the change's median is worse than the parent's by more
  than the bound;
- ``flat``: none of these.

Exits 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
from typing import Dict, List, Optional, Sequence

from bench.driver import BENCHMARK
from bench.stats import iqr, median

#: The gain rule: pairs needed, and the share of them the change must win.
MIN_PAIRS = 10
WIN_SHARE = 0.9

Series = Dict[str, Dict[str, List[float]]]


def load_runs(paths: Sequence[str]) -> Series:
    """Workload → metric → values, over the untraced runs of ``paths``."""
    series: Series = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            runs = json.load(handle)["runs"]
        for run in runs:
            if run["trace"]:
                continue
            for workload, result in run["workloads"].items():
                for metric, value in result["metrics"].items():
                    series.setdefault(workload, {}).setdefault(metric, []).append(
                        float(value["value"])
                    )
    return series


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    bound: float,
    higher_is_better: bool,
) -> str:
    """One of ``better``, ``worse``, ``unresolved`` or ``flat``."""
    sign = 1.0 if higher_is_better else -1.0
    p, c = median(parent), median(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and sign * (c - p) > iqr(parent)
    ):
        return "better"
    all_better = (
        min(change) > max(parent) if higher_is_better else max(change) < min(parent)
    )
    if iqr(parent) / abs(p) > bound and not all_better:
        return "unresolved"
    if -sign * (c - p) / abs(p) > bound:
        return "worse"
    return "flat"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench compare")
    parser.add_argument("parent", help="runs of the parent commit")
    parser.add_argument("change", nargs="+", help="runs of the change")
    args = parser.parse_args(argv)
    with open(BENCHMARK, encoding="utf-8") as handle:
        declared = json.load(handle)["end_to_end"]
    parent, change = load_runs([args.parent]), load_runs(args.change)
    worse = False
    for workload in sorted(parent):
        for spec in declared:
            name = spec["name"]
            before = parent[workload].get(name, [])
            after = change.get(workload, {}).get(name, [])
            if not before or not after:
                print(f"{workload:16} {name:12} missing runs")
                continue
            result = verdict(before, after, spec["bound"], spec["better"] == "higher")
            worse |= result == "worse"
            p, c = median(before), median(after)
            print(
                f"{workload:16} {name:12} parent {p:.6g} (IQR {iqr(before):.3g}, "
                f"n={len(before)})  change {c:.6g} (IQR {iqr(after):.3g}, "
                f"n={len(after)})  {100 * (c - p) / p:+.1f}% "
                f"bound {100 * spec['bound']:.0f}%  {result}"
            )
    return 1 if worse else 0
