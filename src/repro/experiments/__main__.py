"""Command-line runner: regenerate the paper's exhibits from a terminal.

Usage::

    python -m repro.experiments fig1 fig3 fig45      # selected exhibits
    python -m repro.experiments table1               # the big one
    python -m repro.experiments all                  # everything

Sample counts and circuit selection follow the environment knobs of
``repro.experiments.common`` (``REPRO_SAMPLES``, ``REPRO_FULL``).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

import numpy as np

EXHIBITS = ("fig1", "fig3", "fig45", "fig6", "table1", "mlmc")


def run_fig1() -> None:
    from repro.experiments.fig1 import fig1a_kernel_surface, fig1b_field_outcomes
    from repro.viz import heatmap

    surface = fig1a_kernel_surface()
    mid = len(surface.xs) // 2
    print("Fig 1(a): Gaussian kernel surface over the die")
    print(f"  K(0, 0) = {surface.values[mid, mid]:.3f};  "
          f"K(0, corner) = {surface.values[0, 0]:.4f}")
    print(heatmap(surface.values, width=40, symmetric=False))
    outcomes = fig1b_field_outcomes(resolution=24, seed=2008)
    print("Fig 1(b): two sampled field outcomes")
    for index, outcome in enumerate(outcomes.outcomes):
        print(f"  outcome {index}: min={outcome.min():+.2f} "
              f"max={outcome.max():+.2f} std={outcome.std():.2f}")
        print(heatmap(outcome, width=40))


def run_fig3() -> None:
    from repro.experiments.fig3 import (
        fig3a_kernel_fits,
        fig3b_reconstruction_error,
    )

    fits = fig3a_kernel_fits()
    print("Fig 3(a): best fits to the linear (measured-style) kernel")
    print(f"  gaussian    c={fits.gaussian.parameter:.3f} "
          f"rmse={fits.gaussian.rmse:.4f}")
    print(f"  exponential c={fits.exponential.parameter:.3f} "
          f"rmse={fits.exponential.rmse:.4f}")
    print(f"  -> gaussian wins: {fits.gaussian_wins} (paper: yes)")
    report = fig3b_reconstruction_error()
    print("Fig 3(b): rank-25 kernel reconstruction error")
    print(f"  max |error| = {report.max_abs_error:.4f} (paper: 0.016)")


def run_fig45() -> None:
    from repro.experiments.fig45 import fig4_eigenfunctions, fig5_eigenvalue_decay
    from repro.viz import decay_plot, heatmap

    decay = fig5_eigenvalue_decay()
    print("Fig 5: eigenvalue decay and truncation")
    print(f"  n = {decay.num_triangles} triangles (paper: 1546)")
    print(f"  r from the 1% criterion = {decay.selected_r} (paper: 25)")
    print(f"  variance captured = {100 * decay.variance_captured:.2f} %")
    head = np.array2string(decay.eigenvalues[:8], precision=3)
    print(f"  leading eigenvalues: {head}")
    print(decay_plot(decay.eigenvalues, marker=decay.selected_r))
    functions = fig4_eigenfunctions(count=2)
    print("Fig 4: first two eigenfunctions (Fourier-like)")
    print(f"  f1 range [{functions.maps[0].min():+.2f}, "
          f"{functions.maps[0].max():+.2f}] (sign-definite)")
    print(heatmap(functions.maps[0], width=36))
    print(f"  f2 range [{functions.maps[1].min():+.2f}, "
          f"{functions.maps[1].max():+.2f}] (oscillating)")
    print(heatmap(functions.maps[1], width=36))


def run_fig6() -> None:
    from repro.experiments.fig6 import fig6a_error_vs_r, fig6b_error_vs_n

    print("Fig 6(a): sigma_d error vs eigenpairs r (c1908)")
    for point in fig6a_error_vs_r().points:
        print(f"  r = {point.swept_value:3d}: "
              f"{point.sigma_error_percent:6.2f} %")
    print("Fig 6(b): sigma_d error vs triangles n (c1908, r = 25)")
    for point in fig6b_error_vs_n().points:
        print(f"  n = {point.swept_value:5d}: "
              f"{point.sigma_error_percent:6.2f} %")


def run_table1() -> None:
    from repro.experiments.table1 import format_table1, run_table1

    rows = run_table1()
    print("Table 1: reference vs covariance-kernel MC-SSTA")
    print(format_table1(rows))


def run_mlmc() -> None:
    from repro.experiments.mlmc_convergence import (
        format_speedup_report,
        run_mlmc_convergence,
        run_mlmc_speedup,
    )

    convergence = run_mlmc_convergence("c880", ranks=(6, 12, 25))
    print("MLMC convergence: KLE-rank ladder on c880")
    print(convergence.result.format_report())
    print()
    speedup = run_mlmc_speedup("c1908")
    print("MLMC matched-accuracy speedup: surrogate ladder on c1908")
    print(format_speedup_report(speedup))


RUNNERS = {
    "fig1": run_fig1,
    "fig3": run_fig3,
    "fig45": run_fig45,
    "fig6": run_fig6,
    "table1": run_table1,
    "mlmc": run_mlmc,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the DATE 2008 paper's figures and table.",
    )
    parser.add_argument(
        "exhibits",
        nargs="+",
        choices=list(EXHIBITS) + ["all"],
        help="which exhibits to regenerate",
    )
    parser.add_argument(
        "--save",
        metavar="DIR",
        default=None,
        help="also write each exhibit's text rendering to DIR/<name>.txt",
    )
    args = parser.parse_args(argv)
    selected = list(EXHIBITS) if "all" in args.exhibits else args.exhibits
    if args.save:
        import os

        os.makedirs(args.save, exist_ok=True)
    for name in selected:
        start = time.perf_counter()
        print(f"=== {name} " + "=" * (70 - len(name)))
        if args.save:
            import contextlib
            import io
            import os

            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                RUNNERS[name]()
            text = buffer.getvalue()
            print(text, end="")
            with open(os.path.join(args.save, f"{name}.txt"), "w") as handle:
                handle.write(text)
        else:
            RUNNERS[name]()
        print(f"    [{time.perf_counter() - start:.1f} s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
