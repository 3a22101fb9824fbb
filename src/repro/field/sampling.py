"""The paper's two Monte-Carlo parameter-sample generators (§5.1).

Both give, for each statistical parameter ``p_j`` (L, W, Vt, tox), an
``N × N_g`` field of normalized parameter values — one row per MC sample,
one column per gate — following that parameter's covariance kernel.  The
parameters are mutually independent (paper §2.1 assumption).

- :class:`CholeskySampleGenerator` — **Algorithm 1**, the exact reference:
  assemble the full ``N_g × N_g`` gate covariance, factorize, multiply.
  Cost grows as ``O(N_g³)`` for the factorization plus ``O(N · N_g²)`` for
  the sampling — the dimensionality wall the paper attacks.  Its samples
  are plain per-parameter matrices.
- :class:`KLESampleGenerator` — **Algorithm 2**, the paper's method: draw
  ``N × r`` iid normals per parameter (r ≈ 25) and map them through
  ``D_λ`` and each gate's containing triangle (eq. 28).  The samples stay
  in that factored form, :class:`FieldSamples`: the ``(N, Σr)`` ξ draw
  plus the placement's ξ → gate map, :class:`GateBasis`.  A parameter's
  ``(N, N_g)`` field is built only when a caller reads it; the timing
  engine instead projects ξ straight to ``u = Ξ W`` with one GEMM per
  sample set.  ``generate_seconds`` therefore covers only the ξ draw on
  this path — the GEMM is timing work — so compare whole-flow totals
  (``SSTARun.total_seconds``, the Table-1 speedup), not the split.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np
from scipy.linalg.blas import dtrmm

from repro.core.kernels import CovarianceKernel
from repro.core.kle import KLEResult
from repro.utils.linalg import cholesky_with_jitter
from repro.utils.rng import SeedLike, spawn_generators


@dataclass
class SampleGenerationResult:
    """Generated parameter samples plus the wall-clock cost breakdown.

    Attributes
    ----------
    samples:
        Mapping parameter name → ``(N, N_g)`` normalized sample matrix: a
        dict from Algorithm 1, a :class:`FieldSamples` from Algorithm 2.
    setup_seconds:
        One-time cost (Cholesky factorization / gate-to-triangle lookup).
    generate_seconds:
        Per-run sampling cost.  Algorithm 1: the draws and the Cholesky
        products.  Algorithm 2: the ξ draw only — its projection to the
        gates runs inside :meth:`~repro.timing.sta.STAEngine.run`.
    """

    samples: Mapping[str, np.ndarray]
    setup_seconds: float = 0.0
    generate_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.setup_seconds + self.generate_seconds


def _validate_cross_correlation(
    cross_correlation: Optional[np.ndarray],
    num_parameters: int,
    shared_object: bool,
) -> Optional[np.ndarray]:
    """Check a parameter cross-correlation matrix and return its Cholesky.

    The paper assumes parameters vary independently (§2.1); this optional
    extension supports physically coupled parameters (e.g. L and W through
    a shared lithography step) with the separable model ``C ⊗ K``: the same
    spatial kernel K for every parameter, coupled by the ``Np × Np``
    correlation ``C``.  Requires all parameters to share one kernel/KLE
    object (otherwise ``C ⊗ K`` is not the model being asked for).
    """
    if cross_correlation is None:
        return None
    matrix = np.asarray(cross_correlation, dtype=float)
    if matrix.shape != (num_parameters, num_parameters):
        raise ValueError(
            f"cross_correlation must be ({num_parameters}, {num_parameters}),"
            f" got {matrix.shape}"
        )
    if not np.allclose(matrix, matrix.T, atol=1e-10):
        raise ValueError("cross_correlation must be symmetric")
    if not np.allclose(np.diag(matrix), 1.0, atol=1e-10):
        raise ValueError("cross_correlation must have a unit diagonal")
    if not shared_object:
        raise ValueError(
            "cross_correlation requires all parameters to share one "
            "kernel/KLE object (the separable C ⊗ K model)"
        )
    return cholesky_with_jitter(matrix)


class CholeskySampleGenerator:
    """Algorithm 1: exact correlated samples via full-covariance Cholesky.

    Parameters
    ----------
    kernels:
        Mapping parameter name → covariance kernel.  Parameters sharing the
        *same kernel object* share one factorization (the paper factorizes
        per parameter; sharing only changes setup cost, not statistics).
    cross_correlation:
        Optional ``Np × Np`` parameter correlation matrix for the separable
        ``C ⊗ K`` model (requires a shared kernel object); ``None`` keeps
        the paper's independent-parameters assumption.
    """

    def __init__(
        self,
        kernels: Mapping[str, CovarianceKernel],
        *,
        cross_correlation: Optional[np.ndarray] = None,
    ):
        if not kernels:
            raise ValueError("need at least one statistical parameter")
        self.kernels = dict(kernels)
        shared = len({id(k) for k in self.kernels.values()}) == 1
        self._cross_upper = _validate_cross_correlation(
            cross_correlation, len(self.kernels), shared
        )
        self._factor_cache: Dict[int, np.ndarray] = {}
        self._cached_locations: Optional[np.ndarray] = None

    def prepare(self, gate_locations: np.ndarray) -> float:
        """Factorize the gate covariance for each distinct kernel.

        Returns the setup wall-clock seconds.  Re-preparing with identical
        locations is a no-op.
        """
        gate_locations = np.asarray(gate_locations, dtype=float).reshape(-1, 2)
        if (
            self._cached_locations is not None
            and self._cached_locations.shape == gate_locations.shape
            and np.array_equal(self._cached_locations, gate_locations)
        ):
            return 0.0
        start = time.perf_counter()
        self._factor_cache.clear()
        for kernel in self.kernels.values():
            key = id(kernel)
            if key not in self._factor_cache:
                self._factor_cache[key] = cholesky_with_jitter(
                    kernel.matrix(gate_locations)
                )
        self._cached_locations = gate_locations.copy()
        return time.perf_counter() - start

    def generate(
        self,
        gate_locations: np.ndarray,
        num_samples: int,
        *,
        seed: SeedLike = None,
    ) -> SampleGenerationResult:
        """Produce the per-parameter ``(N, N_g)`` sample matrices."""
        if num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {num_samples}")
        setup_seconds = self.prepare(gate_locations)
        generators = spawn_generators(seed, len(self.kernels))
        start = time.perf_counter()
        raw: Dict[str, np.ndarray] = {}
        for (name, kernel), rng in zip(self.kernels.items(), generators):
            upper = self._factor_cache[id(kernel)]
            normals = rng.standard_normal((num_samples, upper.shape[0]))
            # ``normals @ upper`` as a triangular multiply that skips the
            # zeros below the diagonal: (Uᵀ normalsᵀ)ᵀ, in place on the
            # Fortran-ordered normalsᵀ, with the factor as LAPACK left it.
            raw[name] = dtrmm(1.0, upper, normals.T, trans_a=1, overwrite_b=1).T
        samples = _mix_parameters(raw, self._cross_upper)
        generate_seconds = time.perf_counter() - start
        return SampleGenerationResult(samples, setup_seconds, generate_seconds)


@dataclass(frozen=True)
class ParameterBasis:
    """One parameter's share of a :class:`GateBasis`.

    The parameter owns ξ columns ``offset : offset + rank``;
    ``d_lambda`` is its ``(nt, r)`` reconstruction matrix
    ``D_λ = D_r √Λ_r``, ``triangles`` each gate's containing triangle and
    ``rows = d_lambda[triangles]`` the ``(N_g, r)`` gate rows.
    """

    name: str
    offset: int
    rank: int
    d_lambda: np.ndarray
    triangles: np.ndarray
    rows: np.ndarray

    def field(self, xi: np.ndarray) -> np.ndarray:
        """The unmixed ``(N, N_g)`` gate field ``(ξ_j D_λᵀ)[:, tri]``.

        Gathered with ``np.take`` so the result is C-ordered (a fancy
        column index would return a Fortran-ordered copy of the same
        values, which row-block readers stride through).
        """
        block = xi[:, self.offset : self.offset + self.rank]
        return np.take(block @ self.d_lambda.T, self.triangles, axis=1)


class GateBasis:
    """Algorithm 2's ξ → gate map on one placement (paper eq. 28).

    Parameter ``j``'s gate field is ``(ξ_j D_λ,jᵀ)[:, tri_j]``; with a
    parameter cross-correlation ``C`` the fields are then mixed by its
    lower Cholesky factor ``mix`` (the separable ``C ⊗ K`` model).  Every
    step is linear in ξ, so the rank-one projection
    ``u = Σ_j w_j ⊙ p_j`` of per-gate weights ``w`` is ``u = Ξ W`` with
    ``Wᵀ = sensitivity(w)`` — one GEMM instead of four gathered fields.
    Build one with :func:`gate_basis`.
    """

    def __init__(
        self,
        parameters: Sequence[ParameterBasis],
        mix: Optional[np.ndarray] = None,
    ):
        self.parameters: Tuple[ParameterBasis, ...] = tuple(parameters)
        self.names: Tuple[str, ...] = tuple(p.name for p in self.parameters)
        self._index = {name: j for j, name in enumerate(self.names)}
        self.mix = mix
        self.num_gates = int(self.parameters[0].triangles.size)
        #: Σr: the width of a ξ draw.
        self.dimension = sum(p.rank for p in self.parameters)

    def field(self, xi: np.ndarray, name: str) -> np.ndarray:
        """Materialize parameter ``name``'s ``(N, N_g)`` field from ξ."""
        j = self._index[name]
        if self.mix is None:
            return self.parameters[j].field(xi)
        return _mixed(self.mix, j, lambda k: self.parameters[k].field(xi))

    def sensitivity(self, weights: Mapping[str, np.ndarray]) -> np.ndarray:
        """``Wᵀ``: the ``(N_g, Σr)`` coupling of each gate's ``u`` to ξ.

        Row ``g`` is ``[e_k(g) · D_λ,k[tri_k(g)]]_k`` where ``e = w``
        without a mix and ``e_k = Σ_j mix[j, k] w_j`` with one.  Without
        a mix every entry is one elementwise product.
        """
        columns = np.stack(
            [np.asarray(weights[name], dtype=float) for name in self.names]
        )
        if self.mix is not None:
            columns = self.mix.T @ columns
        out = np.empty((self.num_gates, self.dimension))
        for parameter, column in zip(self.parameters, columns):
            stop = parameter.offset + parameter.rank
            np.multiply(
                column[:, None],
                parameter.rows,
                out=out[:, parameter.offset : stop],
            )
        return out


def gate_basis(
    kles: Mapping[str, KLEResult],
    ranks: Mapping[str, int],
    gate_locations: np.ndarray,
    *,
    mix: Optional[np.ndarray] = None,
) -> GateBasis:
    """Resolve each parameter's ``D_λ`` and gate triangles (Alg. 2 line 5).

    Parameters take ξ columns in ``kles`` order; parameters sharing a KLE
    object share its triangle lookup (and, at equal rank, its rows).
    """
    gate_locations = np.asarray(gate_locations, dtype=float).reshape(-1, 2)
    triangles: Dict[int, np.ndarray] = {}
    matrices: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}
    parameters = []
    offset = 0
    for name, kle in kles.items():
        rank = int(ranks[name])
        key = id(kle)
        if key not in triangles:
            triangles[key] = kle.locator.locate_many(gate_locations)
        if (key, rank) not in matrices:
            d_lambda = kle.reconstruction_matrix(rank)
            matrices[key, rank] = (d_lambda, d_lambda[triangles[key]])
        d_lambda, rows = matrices[key, rank]
        parameters.append(
            ParameterBasis(name, offset, rank, d_lambda, triangles[key], rows)
        )
        offset += rank
    return GateBasis(parameters, mix)


class FieldSamples(Mapping[str, np.ndarray]):
    """Algorithm 2 samples in factored form: ξ draws plus a :class:`GateBasis`.

    A read-only mapping parameter name → ``(N, N_g)`` gate field that
    builds a field only when it is read, so a consumer that needs only
    the projection ``u`` (the timing engine, via :meth:`projection`)
    never holds a per-parameter matrix.  ``parts`` are the ``(N_i, Σr)``
    ξ draws of one or more sample sets stacked along the sample axis
    (:meth:`concatenate`, for a batched sweep); each part keeps its own
    GEMM, so its rows of ``u`` do not depend on what it is batched with.
    """

    def __init__(self, basis: GateBasis, parts: Sequence[np.ndarray]):
        self.basis = basis
        self.parts: Tuple[np.ndarray, ...] = tuple(parts)
        self.num_samples = sum(part.shape[0] for part in self.parts)

    @classmethod
    def concatenate(
        cls, samples: Sequence[Mapping[str, np.ndarray]]
    ) -> "FieldSamples":
        """Stack factored sample sets that share one basis, in order."""
        basis: Optional[GateBasis] = None
        parts: List[np.ndarray] = []
        for item in samples:
            if not isinstance(item, FieldSamples) or (
                basis is not None and item.basis is not basis
            ):
                raise ValueError(
                    "only factored samples sharing one basis can be stacked"
                )
            basis = item.basis
            parts.extend(item.parts)
        if basis is None:
            raise ValueError("no samples to stack")
        return cls(basis, parts)

    @property
    def xi(self) -> np.ndarray:
        """The ``(N, Σr)`` ξ draw (parts stacked)."""
        if len(self.parts) == 1:
            return self.parts[0]
        return np.concatenate(self.parts)

    def __getitem__(self, name: str) -> np.ndarray:
        fields = [self.basis.field(part, name) for part in self.parts]
        return fields[0] if len(fields) == 1 else np.concatenate(fields)

    def __contains__(self, name: object) -> bool:
        return name in self.basis.names

    def __iter__(self) -> Iterator[str]:
        return iter(self.basis.names)

    def __len__(self) -> int:
        return len(self.basis.names)

    def projection(self, weights: Mapping[str, np.ndarray]) -> np.ndarray:
        """``u = Σ_j w_j ⊙ p_j`` for every sample, as ``u = Ξ W``.

        One GEMM per part, each written into its own row slice of the
        C-ordered ``(N, N_g)`` result.
        """
        sensitivity = self.basis.sensitivity(weights)
        u = np.empty((self.num_samples, self.basis.num_gates))
        start = 0
        for part in self.parts:
            stop = start + part.shape[0]
            np.matmul(part, sensitivity.T, out=u[start:stop])
            start = stop
        return u


class KLESampleGenerator:
    """Algorithm 2: reduced-dimensionality samples from a solved KLE.

    Parameters
    ----------
    kles:
        Mapping parameter name → :class:`KLEResult`.  Parameters may share
        one KLE object (same kernel/mesh) — each still gets independent RVs.
    r:
        Truncation order (number of retained RVs per parameter); ``None``
        applies each KLE's own 1 %-criterion (:func:`select_truncation`).
    """

    def __init__(
        self,
        kles: Mapping[str, KLEResult],
        *,
        r: Optional[int] = None,
        cross_correlation: Optional[np.ndarray] = None,
        sampler: str = "pseudo",
    ):
        if not kles:
            raise ValueError("need at least one statistical parameter")
        if sampler not in ("pseudo", "antithetic", "sobol"):
            raise ValueError(
                f"sampler must be 'pseudo', 'antithetic' or 'sobol', "
                f"got {sampler!r}"
            )
        self.sampler = sampler
        self.kles = dict(kles)
        shared = len({id(k) for k in self.kles.values()}) == 1
        cross_upper = _validate_cross_correlation(
            cross_correlation, len(self.kles), shared
        )
        self._mix = None if cross_upper is None else cross_upper.T
        self.r: Dict[str, int] = {}
        for name, kle in self.kles.items():
            order = kle.select_truncation() if r is None else r
            if not 1 <= order <= kle.num_eigenpairs:
                raise ValueError(
                    f"r={order} outside [1, {kle.num_eigenpairs}] for {name!r}"
                )
            self.r[name] = order
        self._basis: Optional[GateBasis] = None
        self._cached_locations: Optional[np.ndarray] = None

    def prepare(self, gate_locations: np.ndarray) -> float:
        """Build the ξ → gate :class:`GateBasis` (Algorithm 2 line 5).

        Returns the setup wall-clock seconds; cached per location set.
        """
        gate_locations = np.asarray(gate_locations, dtype=float).reshape(-1, 2)
        if (
            self._cached_locations is not None
            and self._cached_locations.shape == gate_locations.shape
            and np.array_equal(self._cached_locations, gate_locations)
        ):
            return 0.0
        start = time.perf_counter()
        self._basis = gate_basis(
            self.kles, self.r, gate_locations, mix=self._mix
        )
        self._cached_locations = gate_locations.copy()
        return time.perf_counter() - start

    def generate(
        self,
        gate_locations: np.ndarray,
        num_samples: int,
        *,
        seed: SeedLike = None,
    ) -> SampleGenerationResult:
        """Draw ξ for ``num_samples`` samples, as :class:`FieldSamples`."""
        if num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {num_samples}")
        setup_seconds = self.prepare(gate_locations)
        assert self._basis is not None
        generators = spawn_generators(seed, len(self.kles))
        start = time.perf_counter()
        if self.sampler == "sobol":
            # One joint Sobol design over all parameters' RVs: slicing a
            # single low-discrepancy point set keeps the ξ blocks jointly
            # uniform.  (Independently scrambled engines are *strongly*
            # cross-correlated — a classic QMC pitfall.)
            xi = _draw_normals(
                generators[0], num_samples, self._basis.dimension, "sobol"
            )
        else:
            xi = np.concatenate(
                [
                    _draw_normals(rng, num_samples, self.r[name], self.sampler)
                    for name, rng in zip(self.kles, generators)
                ],
                axis=1,
            )
        samples = FieldSamples(self._basis, [np.ascontiguousarray(xi)])
        generate_seconds = time.perf_counter() - start
        return SampleGenerationResult(samples, setup_seconds, generate_seconds)


def _draw_normals(
    rng: np.random.Generator,
    num_samples: int,
    dimension: int,
    sampler: str,
) -> np.ndarray:
    """Standard-normal draws with optional variance reduction.

    - ``"pseudo"``: plain Monte Carlo.
    - ``"antithetic"``: pairs ``(z, -z)`` — cancels odd-moment noise.
    - ``"sobol"``: scrambled Sobol' low-discrepancy points mapped through
      the normal inverse CDF.  QMC is only effective in *low* dimension —
      exactly what the KLE truncation delivers (r ≈ 25 per parameter vs
      thousands of gate RVs), so this option is a direct dividend of the
      paper's dimensionality reduction.
    """
    if sampler == "pseudo":
        return rng.standard_normal((num_samples, dimension))
    if sampler == "antithetic":
        half = (num_samples + 1) // 2
        base = rng.standard_normal((half, dimension))
        paired = np.concatenate([base, -base], axis=0)
        return paired[:num_samples]
    if sampler == "sobol":
        from scipy.stats import norm, qmc

        engine = qmc.Sobol(
            d=dimension, scramble=True,
            seed=int(rng.integers(0, 2**63 - 1)),
        )
        # Sobol' balance properties hold at powers of two; draw the next
        # power and trim rather than emit an unbalanced tail.
        exponent = max(int(np.ceil(np.log2(max(num_samples, 1)))), 0)
        uniforms = engine.random_base2(exponent)[:num_samples]
        # Guard the open-interval requirement of the inverse CDF.
        uniforms = np.clip(uniforms, 1e-12, 1.0 - 1e-12)
        return norm.ppf(uniforms)
    raise ValueError(f"unknown sampler {sampler!r}")


def _mix_parameters(
    raw: Dict[str, np.ndarray],
    cross_upper: Optional[np.ndarray],
) -> Dict[str, np.ndarray]:
    """Couple independent per-parameter fields by the C-Cholesky mix.

    With ``L = cross_upper.T`` (lower factor of C) the mixed fields
    ``P_j = Σ_k L[j, k] W_k`` have cross-covariance
    ``Cov(P_j(x), P_m(y)) = C[j, m] K(x, y)`` — the separable C ⊗ K model.
    """
    if cross_upper is None:
        return raw
    names = list(raw)
    lower = cross_upper.T
    return {
        name: _mixed(lower, j, lambda k: raw[names[k]])
        for j, name in enumerate(names)
    }


def _mixed(
    lower: np.ndarray, j: int, raw: Callable[[int], np.ndarray]
) -> np.ndarray:
    """Mixed field ``P_j = Σ_{k≤j} lower[j, k] · raw(k)``."""
    result = lower[j, 0] * raw(0)
    for k in range(1, j + 1):
        # Structural sparsity of the Cholesky factor: entries are
        # assigned exactly 0.0, never computed, so exact != is right.
        if lower[j, k] != 0.0:  # repro-lint: disable=REPRO-FLOAT001
            result = result + lower[j, k] * raw(k)
    return result
