"""Adaptive multilevel Monte-Carlo estimator for circuit delay statistics.

The estimator telescopes the quantity of interest (worst path delay)
across a :class:`~repro.mlmc.hierarchy.LevelHierarchy`,

    E[Q_L] = E[Q_0] + Σ_{l=1..L} E[Q_l − Q_{l−1}],

sampling each correction with prefix-coupled draws
(:class:`~repro.mlmc.sampler.CoupledLevelSampler`).  Per-level cost
``C_l`` and variance ``V_l`` are measured *online*; the classic Giles
allocation ``N_l ∝ sqrt(V_l / C_l)`` is re-solved after every round until
the estimator variance ``Σ V_l / N_l`` drops below the target ``ε²``.

Second moments telescope the same way (``Y2_l = Q_l² − Q_{l−1}²``), which
recovers ``Var(Q_L)`` and hence σ without ever holding the sample
population; smoothed quantiles come from per-level P² estimators combined
through the same telescoping heuristic.

A degenerate single-level hierarchy reproduces plain
:meth:`repro.timing.ssta.MonteCarloSSTA.run_kle` sampling bit for bit
under the same integer seed — the regression anchor for the coupling.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.mlmc.diagnostics import (
    ConvergenceRates,
    MLMCLevelStats,
    TelescopingCheck,
    fit_convergence_rates,
    format_mlmc_report,
    telescoping_check,
)
from repro.mlmc.hierarchy import LevelHierarchy, LevelModel
from repro.mlmc.sampler import CoupledDraw, CoupledLevelSampler
from repro.circuit.netlist import Netlist
from repro.mlmc.surrogate import LinearDelaySurrogate
from repro.place.placer import Placement
from repro.timing.library import CellLibrary
from repro.timing.sta import STAEngine
from repro.utils.rng import SeedLike, spawn_seed_sequences
from repro.utils.streaming import P2Quantile, RunningMoments

#: Additive per-level seed shift, mirroring ``_shift_seed`` in repro.timing.
_LEVEL_SEED_SHIFT = 0x9E3779B9

#: Floor on measured per-sample cost (seconds) to keep allocations finite.
_MIN_COST_SECONDS = 1e-9


def optimal_allocation(
    eps: float,
    variances: Sequence[float],
    costs: Sequence[float],
) -> np.ndarray:
    """Giles' optimal per-level sample counts for tolerance ``eps``.

    Minimizes total cost ``Σ N_l C_l`` subject to ``Σ V_l / N_l ≤ eps²``:
    ``N_l = ceil(eps⁻² · sqrt(V_l / C_l) · Σ_k sqrt(V_k C_k))``, clamped
    to at least 2 samples per level so variances stay estimable.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    v = np.maximum(np.asarray(variances, dtype=float), 0.0)
    c = np.maximum(np.asarray(costs, dtype=float), _MIN_COST_SECONDS)
    if v.shape != c.shape or v.ndim != 1:
        raise ValueError("variances and costs must be equal-length 1-D")
    weight = float(np.sum(np.sqrt(v * c)))
    counts = np.ceil(eps ** -2 * np.sqrt(v / c) * weight)
    return np.maximum(counts, 2.0).astype(int)


class _LevelState:
    """Mutable accumulators for one level during a run."""

    def __init__(
        self,
        stream: SeedLike,
        has_coarse: bool,
        quantiles: Sequence[float],
        keep_samples: bool,
    ):
        self.stream = stream
        self.num_samples = 0
        self.generate_seconds = 0.0
        self.evaluate_seconds = 0.0
        self.y = RunningMoments()
        self.y2 = RunningMoments()
        self.fine = RunningMoments()
        self.coarse = RunningMoments() if has_coarse else None
        self.fine_q: Dict[float, P2Quantile] = {
            float(q): P2Quantile(float(q)) for q in quantiles
        }
        self.coarse_q: Dict[float, P2Quantile] = (
            {float(q): P2Quantile(float(q)) for q in quantiles}
            if has_coarse
            else {}
        )
        self.kept: Optional[List[np.ndarray]] = [] if keep_samples else None

    @property
    def cost_per_sample(self) -> float:
        """Measured wall-clock seconds per coupled sample."""
        if self.num_samples == 0:
            return _MIN_COST_SECONDS
        total = self.generate_seconds + self.evaluate_seconds
        return max(total / self.num_samples, _MIN_COST_SECONDS)


@dataclass(frozen=True)
class MLMCResult:
    """Outcome of one multilevel run.

    ``mean``/``std`` are the telescoped estimates of the finest level's
    delay statistics; ``estimator_sem`` is the standard error of ``mean``
    (``sqrt(Σ V_l / N_l)``) and ``sigma_sem`` a delta-method standard
    error for ``std``.  ``quantiles`` maps probability → telescoped P²
    estimate (empty unless requested).  ``level_worst_delays`` retains
    the raw fine-stream samples per level when ``keep_samples`` was set.
    """

    levels: Tuple[MLMCLevelStats, ...]
    mean: float
    std: float
    estimator_sem: float
    sigma_sem: float
    quantiles: Dict[float, float]
    consistency: TelescopingCheck
    rates: ConvergenceRates
    total_samples: int
    total_seconds: float
    setup_seconds: float
    hierarchy: str
    eps: Optional[float] = None
    level_worst_delays: Optional[Tuple[np.ndarray, ...]] = field(
        default=None, repr=False
    )

    @property
    def achieved_variance(self) -> float:
        """Realized estimator variance ``Σ V_l / N_l``."""
        return sum(
            s.variance / s.num_samples
            for s in self.levels
            if s.num_samples > 0
        )

    @property
    def target_met(self) -> bool:
        """Whether the adaptive run reached ``Σ V_l/N_l ≤ eps²``
        (vacuously true for fixed-allocation runs)."""
        if self.eps is None:
            return True
        return self.achieved_variance <= self.eps ** 2

    def format_report(self) -> str:
        """Human-readable multi-line diagnostics report."""
        return format_mlmc_report(self)

    def to_dict(self) -> dict:
        """Machine-readable (JSON-serializable) report."""
        return {
            "hierarchy": self.hierarchy,
            "mean_ps": self.mean,
            "std_ps": self.std,
            "estimator_sem_ps": self.estimator_sem,
            "sigma_sem_ps": self.sigma_sem,
            "quantiles_ps": {str(q): v for q, v in self.quantiles.items()},
            "eps": self.eps,
            "target_met": self.target_met,
            "achieved_variance": self.achieved_variance,
            "total_samples": self.total_samples,
            "total_seconds": round(self.total_seconds, 6),
            "setup_seconds": round(self.setup_seconds, 6),
            "consistency": self.consistency.to_dict(),
            "rates": self.rates.to_dict(),
            "levels": [s.to_dict() for s in self.levels],
        }


class MLMCEstimator:
    """Multilevel Monte-Carlo SSTA driver over a level hierarchy.

    Owns one shared :class:`STAEngine` (all "sta"-timed levels reuse its
    compiled program) plus one :class:`CoupledLevelSampler` per level;
    "linear"-timed levels are evaluated through lazily built
    :class:`LinearDelaySurrogate` response surfaces.

    Parameters
    ----------
    netlist, placement:
        The placed circuit, as for :class:`~repro.timing.ssta.MonteCarloSSTA`.
    hierarchy:
        The level ladder (:class:`~repro.mlmc.hierarchy.LevelHierarchy`).
    library:
        Optional cell library override.
    engine:
        STA engine flavour (``"compiled"`` by default).
    surrogate_step:
        Finite-difference step for linearized levels.
    """

    def __init__(
        self,
        netlist: Netlist,
        placement: Placement,
        hierarchy: LevelHierarchy,
        *,
        library: Optional[CellLibrary] = None,
        engine: str = "compiled",
        surrogate_step: float = 1.0,
    ):
        self.hierarchy = hierarchy
        self._models: List[LevelModel] = hierarchy.models()
        self.engine = STAEngine(netlist, placement, library, engine=engine)
        self.gate_locations = np.asarray(
            placement.gate_locations(), dtype=float
        )
        self._samplers: List[CoupledLevelSampler] = [
            CoupledLevelSampler(
                self._models[level],
                self._models[level - 1] if level > 0 else None,
                self.gate_locations,
            )
            for level in range(len(self._models))
        ]
        self.surrogate_step = float(surrogate_step)
        self._surrogates: List[LinearDelaySurrogate] = []
        self.setup_seconds = 0.0

    @property
    def num_levels(self) -> int:
        """Number of rungs in the hierarchy."""
        return len(self._models)

    def _surrogate_for(self, model: LevelModel) -> LinearDelaySurrogate:
        """Return (building on first use) the surrogate for ``model``."""
        for surrogate in self._surrogates:
            if surrogate.matches(model):
                return surrogate
        surrogate = LinearDelaySurrogate(
            self.engine,
            model,
            self.gate_locations,
            step=self.surrogate_step,
        )
        self._surrogates.append(surrogate)
        self.setup_seconds += surrogate.build_seconds
        return surrogate

    def _ensure_surrogates(self) -> None:
        """Pre-build all linearized timers so builds don't pollute C_l."""
        for model in self._models:
            if model.timer == "linear":
                self._surrogate_for(model)

    def _level_streams(self, seed: SeedLike) -> List[SeedLike]:
        """Persistent per-level seed streams for one run.

        Level 0 of an integer seed is ``SeedSequence(seed)`` so its first
        batch spawns the same child generators plain
        ``MonteCarloSSTA.run_kle(..., seed=seed)`` uses — the bitwise
        single-level equivalence.  Higher levels get golden-ratio-shifted
        sequences (independent streams, same idiom as the chunked SSTA
        path).
        """
        count = self.num_levels
        if isinstance(seed, np.random.Generator):
            return [seed] * count
        if isinstance(seed, np.random.SeedSequence):
            if count == 1:
                return [seed]
            return [seed, *seed.spawn(count - 1)]
        if seed is None:
            # One entropy draw at the root, then deterministic spawning —
            # the levels stay mutually independent without any unseeded
            # default_rng() in library code.
            return list(spawn_seed_sequences(None, count))
        base = int(seed)
        return [
            np.random.SeedSequence(base + level * _LEVEL_SEED_SHIFT)
            for level in range(count)
        ]

    def _worst(
        self,
        model: LevelModel,
        draw: CoupledDraw,
        *,
        coarse: bool,
    ) -> np.ndarray:
        """Evaluate one member of a coupled pair on a drawn batch."""
        fields = draw.coarse_fields if coarse else draw.fine_fields
        assert fields is not None, "level 0 has no coarse member"
        if model.timer == "linear":
            return self._surrogate_for(model).worst_delay(fields.xi)
        return self.engine.run(fields).worst_delay

    def _run_batch(self, level: int, state: _LevelState, count: int) -> None:
        """Draw and evaluate ``count`` coupled samples at ``level``."""
        model = self._models[level]
        coarse_model = self._models[level - 1] if level > 0 else None
        draw = self._samplers[level].generate(count, seed=state.stream)
        state.generate_seconds += draw.seconds
        start = time.perf_counter()
        fine = self._worst(model, draw, coarse=False)
        if coarse_model is not None:
            coarse = self._worst(coarse_model, draw, coarse=True)
        else:
            coarse = None
        state.evaluate_seconds += time.perf_counter() - start

        if coarse is None:
            state.y.push(fine)
            state.y2.push(fine ** 2)
        else:
            state.y.push(fine - coarse)
            state.y2.push(fine ** 2 - coarse ** 2)
            state.coarse.push(coarse)
            for estimator in state.coarse_q.values():
                estimator.update(coarse)
        state.fine.push(fine)
        for estimator in state.fine_q.values():
            estimator.update(fine)
        if state.kept is not None:
            state.kept.append(np.asarray(fine, dtype=float))
        state.num_samples += count

    def _draw(
        self,
        level: int,
        state: _LevelState,
        count: int,
        chunk_size: Optional[int],
    ) -> None:
        """Stream ``count`` samples at ``level`` in bounded chunks."""
        remaining = int(count)
        while remaining > 0:
            batch = remaining if chunk_size is None else min(
                remaining, int(chunk_size)
            )
            self._run_batch(level, state, batch)
            remaining -= batch

    def run(
        self,
        *,
        eps: Optional[float] = None,
        n_samples: Optional[Sequence[int]] = None,
        seed: SeedLike = 0,
        chunk_size: Optional[int] = None,
        initial_samples: int = 64,
        max_rounds: int = 8,
        max_level_samples: int = 2_000_000,
        quantiles: Sequence[float] = (),
        keep_samples: bool = False,
        consistency_threshold: float = 4.0,
    ) -> MLMCResult:
        """Run the estimator with adaptive or fixed sample allocation.

        Exactly one of ``eps`` (target standard error of the telescoped
        mean, in ps — drives the adaptive Giles loop) and ``n_samples``
        (explicit per-level counts, coarsest first) must be given.
        ``chunk_size`` bounds the in-memory batch; ``quantiles`` requests
        streamed P² estimates at those probabilities; ``keep_samples``
        retains each level's raw fine-stream worst delays (for
        regression tests — defeats the streaming memory bound).
        """
        if (eps is None) == (n_samples is None):
            raise ValueError("pass exactly one of eps= or n_samples=")
        self._ensure_surrogates()
        run_setup = self.setup_seconds
        states = [
            _LevelState(
                stream,
                has_coarse=level > 0,
                quantiles=quantiles,
                keep_samples=keep_samples,
            )
            for level, stream in enumerate(self._level_streams(seed))
        ]

        if n_samples is not None:
            counts = [int(n) for n in n_samples]
            if len(counts) != self.num_levels:
                raise ValueError(
                    f"n_samples must have {self.num_levels} entries, "
                    f"got {len(counts)}"
                )
            if any(n < 1 for n in counts):
                raise ValueError("n_samples entries must be >= 1")
            for level, count in enumerate(counts):
                self._draw(level, states[level], count, chunk_size)
        else:
            if eps <= 0.0:
                raise ValueError(f"eps must be positive, got {eps}")
            if initial_samples < 2:
                raise ValueError("initial_samples must be >= 2")
            # Adaptive targets can reach millions of (cheap) samples; bound
            # the in-memory batch even when the caller didn't ask for one.
            adaptive_chunk = chunk_size if chunk_size is not None else 65536
            warmup = min(int(initial_samples), int(max_level_samples))
            for level, state in enumerate(states):
                self._draw(level, state, warmup, adaptive_chunk)
            for _ in range(int(max_rounds)):
                variances = [s.y.variance for s in states]
                costs = [s.cost_per_sample for s in states]
                targets = optimal_allocation(eps, variances, costs)
                extra = [
                    min(int(target), int(max_level_samples)) - s.num_samples
                    for target, s in zip(targets, states)
                ]
                if all(e <= 0 for e in extra):
                    break
                for level, (state, count) in enumerate(zip(states, extra)):
                    if count > 0:
                        self._draw(level, state, count, adaptive_chunk)

        return self._build_result(
            states,
            eps=eps,
            setup_seconds=run_setup,
            quantiles=quantiles,
            consistency_threshold=consistency_threshold,
        )

    def _build_result(
        self,
        states: List[_LevelState],
        *,
        eps: Optional[float],
        setup_seconds: float,
        quantiles: Sequence[float],
        consistency_threshold: float,
    ) -> MLMCResult:
        """Freeze accumulated level states into an :class:`MLMCResult`."""
        stats: List[MLMCLevelStats] = []
        for level, (model, state) in enumerate(zip(self._models, states)):
            stats.append(
                MLMCLevelStats(
                    level=level,
                    label=model.label,
                    parameter=model.parameter,
                    timer=model.timer,
                    num_samples=state.num_samples,
                    mean_correction=state.y.mean,
                    variance=state.y.variance,
                    cost_per_sample=state.cost_per_sample,
                    generate_seconds=state.generate_seconds,
                    evaluate_seconds=state.evaluate_seconds,
                    fine_mean=state.fine.mean,
                    fine_sem=state.fine.sem,
                    fine_std=state.fine.std,
                    coarse_mean=(
                        state.coarse.mean if state.coarse is not None else None
                    ),
                    coarse_sem=(
                        state.coarse.sem if state.coarse is not None else None
                    ),
                    fine_quantiles={
                        q: est.value() for q, est in state.fine_q.items()
                    },
                    coarse_quantiles={
                        q: est.value() for q, est in state.coarse_q.items()
                    },
                )
            )

        mean = float(sum(s.y.mean for s in states))
        second_moment = float(sum(s.y2.mean for s in states))
        variance_q = max(second_moment - mean ** 2, 0.0)
        std = float(np.sqrt(variance_q))
        estimator_variance = float(
            sum(
                s.y.variance / s.num_samples
                for s in states
                if s.num_samples > 0
            )
        )
        estimator_sem = float(np.sqrt(estimator_variance))
        m2_variance = float(
            sum(
                s.y2.variance / s.num_samples
                for s in states
                if s.num_samples > 0
            )
        )
        var_of_variance = m2_variance + 4.0 * mean ** 2 * estimator_variance
        if std > 0.0:
            sigma_sem = float(np.sqrt(var_of_variance) / (2.0 * std))
        else:
            sigma_sem = float("inf") if var_of_variance > 0.0 else 0.0

        telescoped_quantiles: Dict[float, float] = {}
        for q in (float(q) for q in quantiles):
            value = states[0].fine_q[q].value()
            for state in states[1:]:
                value += state.fine_q[q].value() - state.coarse_q[q].value()
            telescoped_quantiles[q] = float(value)

        level_seconds = sum(
            s.generate_seconds + s.evaluate_seconds for s in states
        )
        kept = (
            tuple(
                np.concatenate(state.kept)
                if state.kept
                else np.empty(0)
                for state in states
            )
            if states[0].kept is not None
            else None
        )
        return MLMCResult(
            levels=tuple(stats),
            mean=mean,
            std=std,
            estimator_sem=estimator_sem,
            sigma_sem=sigma_sem,
            quantiles=telescoped_quantiles,
            consistency=telescoping_check(
                stats, threshold=consistency_threshold
            ),
            rates=fit_convergence_rates(stats),
            total_samples=int(sum(s.num_samples for s in states)),
            total_seconds=float(level_seconds + setup_seconds),
            setup_seconds=float(setup_seconds),
            hierarchy=self.hierarchy.describe(),
            eps=None if eps is None else float(eps),
            level_worst_delays=kept,
        )
