"""Table 1: per-circuit mismatch and speedup of the kernel-based MC-SSTA.

Runs the full paper experiment for each benchmark circuit: place it, run
both MC flows with the shared Gaussian kernel for all four parameters
(L, W, Vt, tox), and report ``e_μ``, ``e_σ`` and the speedup.

The default circuit list stops at s15850 (9 772 gates); the three largest
circuits need a multi-gigabyte reference covariance and are enabled with
``REPRO_FULL=1`` (see DESIGN.md §4, substitution 7).

Rows are independent experiments that share the on-disk artifact caches
— the KLE eigensolve, per-circuit placements and the native STA kernel
build — so each expensive setup is paid once; :func:`run_table1` runs
them one after another.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.circuit.benchmarks import benchmark_names, get_spec
from repro.experiments.common import (
    default_engine,
    default_num_samples,
    full_mode,
    get_context,
)
from repro.timing.ssta import MonteCarloSSTA, SSTAComparison
from repro.utils.rng import SeedLike

# Circuits whose N_g² reference covariance exceeds ~2 GB.
LARGE_CIRCUITS = ("s35932", "s38584", "s38417")


def default_table1_circuits() -> List[str]:
    """Table 1 circuits honouring the ``REPRO_FULL`` gate."""
    names = benchmark_names()
    if full_mode():
        return names
    return [name for name in names if name not in LARGE_CIRCUITS]


def run_table1_row(
    circuit: str,
    *,
    num_samples: Optional[int] = None,
    seed: SeedLike = 0,
    r: Optional[int] = 25,
    engine: Optional[str] = None,
    chunk_size: Optional[int] = None,
) -> SSTAComparison:
    """Run the reference-vs-kernel comparison for one circuit.

    ``engine`` picks the STA engine mode (default: ``REPRO_ENGINE`` or
    ``"compiled"``); ``chunk_size`` streams both flows in bounded-memory
    chunks (see :meth:`MonteCarloSSTA.compare`).
    """
    context = get_context()
    if num_samples is None:
        num_samples = default_num_samples()
    if engine is None:
        engine = default_engine()
    netlist = context.circuit(circuit)
    placement = context.placement(circuit)
    ssta = MonteCarloSSTA(
        netlist, placement, context.kernel, context.kle, r=r, engine=engine
    )
    return ssta.compare(
        num_samples, seed=seed, circuit_name=circuit, chunk_size=chunk_size
    )


def run_table1(
    circuits: Optional[Sequence[str]] = None,
    *,
    num_samples: Optional[int] = None,
    seed: SeedLike = 0,
    r: Optional[int] = 25,
    engine: Optional[str] = None,
    chunk_size: Optional[int] = None,
) -> List[SSTAComparison]:
    """Regenerate Table 1 (or a subset of its rows), in input order.

    Each row seeds its own random streams from ``seed``, so a row is the
    same whichever other circuits run with it.
    """
    if circuits is None:
        circuits = default_table1_circuits()
    for name in circuits:
        get_spec(name)  # fail fast on typos
    return [
        run_table1_row(
            name,
            num_samples=num_samples,
            seed=seed,
            r=r,
            engine=engine,
            chunk_size=chunk_size,
        )
        for name in circuits
    ]


def format_table1(rows: Sequence[SSTAComparison]) -> str:
    """Render rows in the paper's Table 1 layout."""
    lines = [
        f"{'Circuit':<10}{'Ng (gates)':>12}{'e_mu(%)':>10}"
        f"{'e_sigma(%)':>12}{'Speedup':>10}",
        "-" * 54,
    ]
    for row in rows:
        lines.append(
            f"{row.circuit:<10}{row.num_gates:>12}"
            f"{row.e_mu_percent:>10.3f}{row.e_sigma_percent:>12.3f}"
            f"{row.speedup:>10.2f}"
        )
    return "\n".join(lines)
