"""Prefix-coupled fine/coarse KLE sample generation for one MLMC level.

MLMC level variances only decay if the fine and coarse members of a
correction pair are evaluated on *the same* random input.  Here both are
driven by one block of iid normals ξ per statistical parameter:

- fine:   ``Q_l``    sees ``(ξ_1 … ξ_{r_l})``   through level ``l``'s ``D_λ``,
- coarse: ``Q_{l−1}`` sees ``(ξ_1 … ξ_{r_{l−1}})`` — the *prefix* — through
  level ``l−1``'s ``D_λ``.

For a KLE-rank hierarchy this is exactly the nested-truncation coupling
(the coarse field is the fine field minus its trailing eigenmodes); for a
mesh hierarchy both levels use the full ξ and differ only in the
discretized eigenfunctions.  Marginally, each member still follows its
own level's rank-``r`` KLE law, so every level's fine stream is a valid
single-level KLE Monte-Carlo stream — the property the covariance-
preservation tests pin down.

Both members are factored :class:`~repro.field.sampling.FieldSamples` over
the one ξ → gate builder, :func:`~repro.field.sampling.gate_basis`: a
draw holds only ξ until a caller reads a field, and an STA-timed member
is projected straight to ``u`` by the engine.  The fine member's draw
order (one ``spawn_generators`` stream per parameter, ``pseudo`` normals)
is that of :class:`repro.field.sampling.KLESampleGenerator`, so a
degenerate single-level hierarchy reproduces plain Algorithm 2 sampling
bit for bit under the same seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.field.sampling import FieldSamples, GateBasis, gate_basis
from repro.mlmc.hierarchy import LevelModel
from repro.utils.rng import SeedLike, spawn_generators


@dataclass
class CoupledDraw:
    """One batch of coupled draws.

    Attributes
    ----------
    fine_fields:
        The fine member: the ``(N, Σr_fine)`` ξ draw over the fine basis.
    coarse_fields:
        The coarse member — each parameter's ξ prefix over the coarse
        basis — or ``None`` at level 0.
    seconds:
        Wall-clock spent generating this batch.
    """

    fine_fields: FieldSamples
    coarse_fields: Optional[FieldSamples]
    seconds: float

    @property
    def xi(self) -> Dict[str, np.ndarray]:
        """Parameter name → its ``(N, r_fine)`` block of the fine ξ."""
        xi = self.fine_fields.xi
        return {
            p.name: xi[:, p.offset : p.offset + p.rank]
            for p in self.fine_fields.basis.parameters
        }


class CoupledLevelSampler:
    """Coupled fine/coarse sample generator for one MLMC level.

    Parameters
    ----------
    fine:
        The level's own :class:`LevelModel`.
    coarse:
        The next-coarser model for the correction pair, or ``None`` at
        level 0 (plain single-model sampling).
    gate_locations:
        ``(N_g, 2)`` die coordinates the fields are read at.
    """

    def __init__(
        self,
        fine: LevelModel,
        coarse: Optional[LevelModel],
        gate_locations: np.ndarray,
    ):
        self.fine = fine
        self.coarse = coarse
        if coarse is not None:
            if coarse.parameter_names != fine.parameter_names:
                raise ValueError(
                    "fine and coarse levels must cover the same parameters"
                )
            for name in fine.parameter_names:
                if coarse.ranks[name] > fine.ranks[name]:
                    raise ValueError(
                        f"coarse rank exceeds fine rank for {name!r}; "
                        "prefix coupling impossible"
                    )
        self.fine_basis = gate_basis(fine.kles, fine.ranks, gate_locations)
        self.coarse_basis: Optional[GateBasis] = (
            gate_basis(coarse.kles, coarse.ranks, gate_locations)
            if coarse is not None
            else None
        )
        if self.coarse_basis is not None:
            # Each coarse parameter reads the first r_coarse columns of
            # its fine ξ block.
            self._prefix = np.concatenate(
                [
                    np.arange(f.offset, f.offset + c.rank)
                    for f, c in zip(
                        self.fine_basis.parameters,
                        self.coarse_basis.parameters,
                    )
                ]
            )

    def generate(
        self, num_samples: int, *, seed: SeedLike = None
    ) -> CoupledDraw:
        """Draw ``num_samples`` coupled samples (ξ only; fields are lazy)."""
        if num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {num_samples}")
        parameters = self.fine_basis.parameters
        generators = spawn_generators(seed, len(parameters))
        start = time.perf_counter()
        xi = np.concatenate(
            [
                rng.standard_normal((num_samples, p.rank))
                for p, rng in zip(parameters, generators)
            ],
            axis=1,
        )
        coarse: Optional[FieldSamples] = None
        if self.coarse_basis is not None:
            coarse = FieldSamples(
                self.coarse_basis, [np.take(xi, self._prefix, axis=1)]
            )
        seconds = time.perf_counter() - start
        return CoupledDraw(
            fine_fields=FieldSamples(self.fine_basis, [xi]),
            coarse_fields=coarse,
            seconds=seconds,
        )

    def covariance_fine(self) -> np.ndarray:
        """Gate-level covariance implied by the fine model's first
        parameter — the target of the coupling property tests."""
        return _covariance(self.fine_basis)

    def covariance_coarse(self) -> np.ndarray:
        """Gate-level covariance implied by the coarse model's first
        parameter (requires a coarse member)."""
        if self.coarse_basis is None:
            raise ValueError("level has no coarse member")
        return _covariance(self.coarse_basis)


def _covariance(basis: GateBasis) -> np.ndarray:
    rows = basis.parameters[0].rows  # (N_g, r)
    return rows @ rows.T
