"""Block-based (non-Monte-Carlo) SSTA on the KLE random variables.

The paper closes §5.2 expecting its dimensionality reduction "to replicate
in other CAD algorithms".  This module demonstrates exactly that: a
first-order *block-based* SSTA in the style of Visweswariah [6] and
Chang–Sapatnekar [5], with one crucial difference — the canonical delay
form is written over the **KLE random variables** ``ξ`` instead of
grid-PCA components:

    d = a₀ + Σ_{j,m} a_{j,m} ξ_{j,m}

where j ranges over the statistical parameters (L, W, Vt, tox) and m over
the r retained eigenpairs of each parameter's kernel.  A gate at location
``g`` couples to ξ_{j,m} with weight ``w_j · sqrt(λ_m) f_m(g)`` — the KLE
reconstruction row of its containing triangle — so spatial correlation
between any two gates is carried exactly (to rank r) by shared ξ's.

Arrival times propagate with the classic canonical operations: affine
``add`` and the Clark moment-matching ``max`` (tightness-weighted
coefficient blending, unexplained variance pushed into an independent
local term).  One topological pass replaces the whole MC loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple, Union

import numpy as np
from scipy.stats import norm

from repro.circuit.levelize import levelize
from repro.circuit.netlist import Netlist
from repro.core.kle import KLEResult
from repro.field.sampling import gate_basis
from repro.place.placer import Placement
from repro.timing.library import STATISTICAL_PARAMETERS, CellLibrary
from repro.timing.sta import STAEngine
from repro.timing.wire import peri_slew


@dataclass(frozen=True)
class CanonicalDelay:
    """First-order canonical delay form ``a₀ + aᵀξ + local``.

    Attributes
    ----------
    mean:
        The deterministic part a₀ (ps).
    coefficients:
        Sensitivities to the shared (global) KLE RVs, ``(R,)``.
    local_variance:
        Variance of the independent residual term (ps²) — holds both truly
        local variation and the variance Clark's max cannot attribute to
        the shared basis.
    """

    mean: float
    coefficients: np.ndarray
    local_variance: float

    @property
    def variance(self) -> float:
        return float(np.dot(self.coefficients, self.coefficients)) + (
            self.local_variance
        )

    @property
    def sigma(self) -> float:
        return math.sqrt(max(self.variance, 0.0))

    def shifted(self, offset: float) -> "CanonicalDelay":
        """Add a deterministic delay (wire, nominal gate component)."""
        return CanonicalDelay(
            self.mean + float(offset), self.coefficients, self.local_variance
        )

    def plus(self, other: "CanonicalDelay") -> "CanonicalDelay":
        """Sum of (conditionally independent local parts) canonical forms."""
        return CanonicalDelay(
            self.mean + other.mean,
            self.coefficients + other.coefficients,
            self.local_variance + other.local_variance,
        )

    def covariance_with(self, other: "CanonicalDelay") -> float:
        """Covariance through the shared global basis only."""
        return float(np.dot(self.coefficients, other.coefficients))

    def sample(
        self, xi: np.ndarray, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Evaluate on explicit global-RV samples (validation hook)."""
        values = self.mean + xi @ self.coefficients
        if self.local_variance > 0.0 and rng is not None:
            values = values + rng.standard_normal(len(xi)) * math.sqrt(
                self.local_variance
            )
        return values


def clark_max(x: CanonicalDelay, y: CanonicalDelay) -> CanonicalDelay:
    """Clark's moment-matched maximum of two canonical forms.

    Matches the exact first two moments of ``max(X, Y)`` for jointly
    Gaussian X, Y and blends sensitivities by the tightness probability
    ``T = P(X > Y)``; variance not expressible over the shared basis goes
    into the local term (kept non-negative).
    """
    var_x = x.variance
    var_y = y.variance
    cov = x.covariance_with(y)
    theta_sq = max(var_x + var_y - 2.0 * cov, 0.0)
    theta = math.sqrt(theta_sq)
    if theta < 1e-12:
        # (Nearly) perfectly correlated with equal spread: max is whichever
        # mean is larger.
        return x if x.mean >= y.mean else y
    alpha = (x.mean - y.mean) / theta
    tightness = float(norm.cdf(alpha))
    phi = float(norm.pdf(alpha))
    mean = x.mean * tightness + y.mean * (1.0 - tightness) + theta * phi
    second_moment = (
        (var_x + x.mean**2) * tightness
        + (var_y + y.mean**2) * (1.0 - tightness)
        + (x.mean + y.mean) * theta * phi
    )
    variance = max(second_moment - mean * mean, 0.0)
    coefficients = tightness * x.coefficients + (1.0 - tightness) * y.coefficients
    explained = float(np.dot(coefficients, coefficients))
    local = max(variance - explained, 0.0)
    return CanonicalDelay(mean, coefficients, local)


@dataclass(frozen=True)
class BlockSSTAResult:
    """Result of one block-based SSTA pass."""

    end_arrivals: Dict[str, CanonicalDelay]
    worst: CanonicalDelay

    def mean_worst_delay(self) -> float:
        """Mean of the circuit worst-delay distribution (ps)."""
        return self.worst.mean

    def std_worst_delay(self) -> float:
        """Standard deviation of the circuit worst delay (ps)."""
        return self.worst.sigma

    def quantile_worst_delay(self, q: float) -> float:
        """Gaussian quantile of the worst delay (e.g. q = 0.997 for 3σ)."""
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        return self.worst.mean + self.worst.sigma * float(norm.ppf(q))


class BlockSSTA:
    """One-pass statistical timing over the KLE basis.

    Parameters
    ----------
    netlist / placement:
        The placed circuit.
    kle:
        A solved :class:`KLEResult` shared by all parameters, or a mapping
        parameter → KLE.
    r:
        Truncation order per parameter (``None``: the 1 % criterion).
    library:
        Cell library (default 90nm-class).

    Notes
    -----
    First-order model: gate delays are linearized around nominal
    (``delay ≈ D_nom (1 + k₁ u)``) and slews propagate at their nominal
    values, the standard block-based simplifications ([5][6]).  The k₂
    quadratic term is dropped — accuracy versus the MC reference therefore
    degrades gracefully with increasing variability, which the tests check.
    """

    def __init__(
        self,
        netlist: Netlist,
        placement: Placement,
        kle: Union[KLEResult, Mapping[str, KLEResult]],
        *,
        r: Optional[int] = None,
        library: Optional[CellLibrary] = None,
        parameters: Tuple[str, ...] = STATISTICAL_PARAMETERS,
    ):
        self.netlist = netlist
        self.placement = placement
        self.library = library or CellLibrary()
        self.parameters = tuple(parameters)
        if isinstance(kle, KLEResult):
            self.kles = {name: kle for name in self.parameters}
        else:
            self.kles = dict(kle)
            missing = set(self.parameters) - set(self.kles)
            if missing:
                raise ValueError(f"missing KLE for parameters: {sorted(missing)}")
        self.r = {}
        for name in self.parameters:
            order = self.kles[name].select_truncation() if r is None else r
            if not 1 <= order <= self.kles[name].num_eigenpairs:
                raise ValueError(f"invalid r={order} for parameter {name!r}")
            self.r[name] = order
        self.num_global_rvs = sum(self.r.values())

        # Reuse the MC engine's precompiled wire models and nominal slews.
        self._engine = STAEngine(netlist, placement, self.library)
        self._gate_index = {g.name: i for i, g in enumerate(netlist.gates)}
        # All gates' global-basis rows at once: Wᵀ of the Algorithm 2
        # basis under the packed model weights the MC engine projects
        # with, sensitivity[g] = [w_j(g) · D_λ-row_j(g)]_j, (Ng, R).
        basis = gate_basis(
            {name: self.kles[name] for name in self.parameters},
            self.r,
            placement.gate_locations(),
        )
        packed = self._engine._packed_models
        self._sensitivity = basis.sensitivity(
            {name: packed.parameter_weights(name) for name in self.parameters}
        )

    def _gate_sensitivity_row(self, gate_name: str) -> np.ndarray:
        """Global-basis row of ``u = wᵀ p`` for one gate: (R,)."""
        return self._sensitivity[self._gate_index[gate_name]]

    def run(self, *, input_slew_ps: Optional[float] = None) -> BlockSSTAResult:
        """One topological pass; returns canonical arrivals at end points.

        Both arrival times *and slews* propagate as canonical forms: a
        gate's delay inherits sensitivity ``d_slew`` to the statistical
        part of its input slew, which carries a substantial share of the
        path variance that a nominal-slew block model would lose.
        """
        engine = self._engine
        technology = self.library.technology
        if input_slew_ps is None:
            input_slew_ps = technology.default_input_slew_ps
        levelized = engine.levelized
        zeros = np.zeros(self.num_global_rvs)

        arrival: Dict[str, CanonicalDelay] = {}
        slew: Dict[str, CanonicalDelay] = {}
        for net in self.netlist.primary_inputs:
            arrival[net] = CanonicalDelay(0.0, zeros, 0.0)
            slew[net] = CanonicalDelay(float(input_slew_ps), zeros, 0.0)
        for dff in self.netlist.sequential_gates():
            model = engine._models[dff.name]
            load = engine._wires[dff.output].total_cap_ff
            nominal = model.nominal_delay(0.0, load)
            row = self._gate_sensitivity_row(dff.name)
            s2 = float(np.dot(row, row))
            arrival[dff.output] = CanonicalDelay(
                nominal * (1.0 + model.k2 * s2),
                nominal * model.k1 * row,
                2.0 * (nominal * model.k2 * s2) ** 2,
            )
            s_nom = model.nominal_slew(0.0, load)
            slew[dff.output] = CanonicalDelay(
                s_nom, s_nom * model.m1 * row, 0.0
            )

        for gate in levelized.gates_in_order:
            model = engine._models[gate.name]
            load = engine._wires[gate.output].total_cap_ff
            sensitivity_row = self._gate_sensitivity_row(gate.name)
            s2 = float(np.dot(sensitivity_row, sensitivity_row))
            best: Optional[CanonicalDelay] = None
            best_slew: Optional[CanonicalDelay] = None
            best_nominal = -math.inf
            for pin, net in enumerate(gate.inputs):
                wire = engine._wires[net]
                slot = engine._sink_slot[(net, gate.name, pin)]
                wire_delay = float(wire.sink_delay_ps[slot])
                in_slew = slew[net]
                # PERI through the wire, linearized at the nominal slew:
                # d(sqrt(s² + step²))/ds = s / sqrt(s² + step²).
                step = float(wire.sink_delay_ps[slot])
                pin_slew_nom = float(peri_slew(in_slew.mean, step))
                dpin_dslew = in_slew.mean / max(pin_slew_nom, 1e-12)
                pin_slew = CanonicalDelay(
                    pin_slew_nom,
                    dpin_dslew * in_slew.coefficients,
                    dpin_dslew**2 * in_slew.local_variance,
                )
                nominal = model.nominal_delay(pin_slew_nom, load)
                # ΔD = D_nom k₁ u + D_nom k₂ E[u²] (mean shift) + d_slew Δs.
                gate_canonical = CanonicalDelay(
                    nominal * (1.0 + model.k2 * s2),
                    nominal * model.k1 * sensitivity_row
                    + model.d_slew * pin_slew.coefficients,
                    2.0 * (nominal * model.k2 * s2) ** 2
                    + model.d_slew**2 * pin_slew.local_variance,
                )
                candidate = arrival[net].shifted(wire_delay).plus(
                    gate_canonical
                )
                s_nom = model.nominal_slew(pin_slew_nom, load)
                pin_out_slew = CanonicalDelay(
                    s_nom,
                    s_nom * model.m1 * sensitivity_row
                    + model.s_slew * pin_slew.coefficients,
                    model.s_slew**2 * pin_slew.local_variance,
                )
                if best is None:
                    best = candidate
                    best_slew = pin_out_slew
                    best_nominal = candidate.mean
                else:
                    best = clark_max(best, candidate)
                    if candidate.mean > best_nominal:
                        best_nominal = candidate.mean
                        best_slew = pin_out_slew
            assert best is not None and best_slew is not None
            arrival[gate.output] = best
            slew[gate.output] = best_slew

        end_arrivals = {
            net: arrival[net] for net in levelized.end_nets if net in arrival
        }
        worst: Optional[CanonicalDelay] = None
        for canonical in end_arrivals.values():
            worst = canonical if worst is None else clark_max(worst, canonical)
        if worst is None:
            worst = CanonicalDelay(0.0, zeros, 0.0)
        return BlockSSTAResult(end_arrivals=end_arrivals, worst=worst)
