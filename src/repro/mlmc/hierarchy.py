"""Level hierarchies for the multilevel Monte-Carlo estimator.

A *hierarchy* is an ordered ladder of increasingly accurate (and usually
increasingly expensive) approximations ``Q_0, Q_1, …, Q_L`` of the
circuit-delay quantity of interest.  The MLMC estimator telescopes

    E[Q_L] = E[Q_0] + Σ_{l=1..L} E[Q_l − Q_{l−1}]

and samples each correction with *coupled* draws — both members of a pair
see the same underlying iid normals ξ (prefix-coupling), so the level
variances ``V_l = Var(Q_l − Q_{l−1})`` decay up the ladder.

Three concrete ladders, all built from artifacts the paper's flow already
computes:

- :class:`KLERankHierarchy` — truncation ranks ``r_0 < … < r_L`` of *one*
  cached eigensolve: level ``l`` uses the first ``r_l`` columns of
  ``D_λ``.  The Griebel–Li interplay of KLE truncation error vs. sampling
  error, with zero extra setup cost.
- :class:`MeshKLEHierarchy` — coarse→fine die triangulations (via
  :mod:`repro.mesh.refine`), one eigensolve per mesh (disk-cached).
- :class:`SurrogateKLEHierarchy` — a *model-fidelity* ladder: level 0
  evaluates a linearized response-surface timer
  (:class:`~repro.mlmc.surrogate.LinearDelaySurrogate`, ~100× cheaper per
  sample), the top level the full Monte-Carlo STA.  Because the KLE-rank
  and mesh knobs only change *sample generation* — the STA cost per
  sample is identical across their levels — this is the ladder whose
  cost actually grades with level, and hence the one that buys the
  headline matched-accuracy speedup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.kernels import CovarianceKernel
from repro.core.kle import KLEResult
from repro.mesh.mesh import TriangleMesh
from repro.timing.library import STATISTICAL_PARAMETERS
from repro.utils.artifact_cache import ArtifactCache

#: Evaluation modes a level model may request from the estimator.
LEVEL_TIMERS = ("sta", "linear")


def _normalize_kles(
    kle: Union[KLEResult, Mapping[str, KLEResult]],
) -> "Dict[str, KLEResult]":
    """One shared KLE (the paper's setup) or a per-parameter mapping."""
    if isinstance(kle, KLEResult):
        return {name: kle for name in STATISTICAL_PARAMETERS}
    kles = dict(kle)
    if not kles:
        raise ValueError("need at least one statistical parameter KLE")
    unknown = set(kles) - set(STATISTICAL_PARAMETERS)
    if unknown:
        raise ValueError(f"unknown statistical parameters: {sorted(unknown)}")
    return kles


@dataclass(frozen=True)
class LevelModel:
    """One rung of a hierarchy: a field discretization plus a timer choice.

    Attributes
    ----------
    kles:
        Parameter name → :class:`KLEResult` used at this level.
    ranks:
        Parameter name → KLE truncation rank at this level.
    label:
        Human-readable level tag (shows up in diagnostics tables).
    parameter:
        Scalar level-refinement parameter (rank, triangle count, …) the
        convergence-rate fits regress against.
    timer:
        ``"sta"`` — full Monte-Carlo STA on the generated gate fields;
        ``"linear"`` — the finite-difference linearized surrogate timer.
    """

    kles: Mapping[str, KLEResult]
    ranks: Mapping[str, int]
    label: str
    parameter: float
    timer: str = "sta"

    def __post_init__(self) -> None:
        if self.timer not in LEVEL_TIMERS:
            raise ValueError(
                f"timer must be one of {LEVEL_TIMERS}, got {self.timer!r}"
            )
        if set(self.kles) != set(self.ranks):
            raise ValueError("kles and ranks must cover the same parameters")
        for name, rank in self.ranks.items():
            kle = self.kles[name]
            if not 1 <= int(rank) <= kle.num_eigenpairs:
                raise ValueError(
                    f"rank {rank} outside [1, {kle.num_eigenpairs}] "
                    f"for parameter {name!r}"
                )

    @property
    def parameter_names(self) -> Tuple[str, ...]:
        """Statistical parameter names, in sampling order."""
        return tuple(self.kles)

    def total_rank(self) -> int:
        """Total iid-normal dimension of one sample at this level."""
        return sum(int(r) for r in self.ranks.values())


class LevelHierarchy:
    """Base class: an ordered ladder of :class:`LevelModel` rungs.

    Subclasses populate ``self._models`` (coarse→fine).  Coupled sampling
    requires each parameter's rank to be non-decreasing up the ladder and
    each adjacent pair to cover the same parameters; the base constructor
    validates both.
    """

    def __init__(self, models: Sequence[LevelModel]):
        models = list(models)
        if not models:
            raise ValueError("a hierarchy needs at least one level")
        names = models[0].parameter_names
        for model in models[1:]:
            if model.parameter_names != names:
                raise ValueError(
                    "all levels must cover the same statistical parameters"
                )
        for coarse, fine in zip(models, models[1:]):
            for name in names:
                if coarse.ranks[name] > fine.ranks[name]:
                    raise ValueError(
                        f"rank of {name!r} decreases from level "
                        f"{coarse.label!r} to {fine.label!r}; prefix "
                        "coupling needs non-decreasing ranks"
                    )
        self._models: List[LevelModel] = models

    @property
    def num_levels(self) -> int:
        """Number of rungs ``L + 1`` (so a degenerate hierarchy has 1)."""
        return len(self._models)

    def models(self) -> List[LevelModel]:
        """The level models, coarsest first."""
        return list(self._models)

    def describe(self) -> str:
        """One-line summary, e.g. ``rank-5 -> rank-12 -> rank-25``."""
        return " -> ".join(model.label for model in self._models)


class KLERankHierarchy(LevelHierarchy):
    """KLE truncation-rank ladder ``r_0 < … < r_L`` on one eigensolve.

    All levels share the same :class:`KLEResult` object(s); level ``l``
    keeps the first ``r_l`` columns of ``D_λ``, so the whole ladder costs
    one (cached) eigensolve.  Coupled pairs share the ξ prefix: the
    coarse member reuses the first ``r_{l−1}`` normals of the fine draw.

    With a single rank the hierarchy degenerates to plain single-level
    KLE Monte Carlo — bit-for-bit identical to
    :meth:`repro.timing.ssta.MonteCarloSSTA.run_kle` under the same seed.
    """

    def __init__(
        self,
        kle: Union[KLEResult, Mapping[str, KLEResult]],
        ranks: Sequence[int],
    ):
        kles = _normalize_kles(kle)
        ranks = [int(r) for r in ranks]
        if not ranks:
            raise ValueError("need at least one truncation rank")
        if any(b <= a for a, b in zip(ranks, ranks[1:])):
            raise ValueError(f"ranks must be strictly increasing, got {ranks}")
        super().__init__(
            [
                LevelModel(
                    kles=kles,
                    ranks={name: r for name in kles},
                    label=f"rank-{r}",
                    parameter=float(r),
                )
                for r in ranks
            ]
        )
        self.ranks = tuple(ranks)


class MeshKLEHierarchy(LevelHierarchy):
    """Mesh-refinement ladder: one KLE per (coarse→fine) triangulation.

    Levels differ in the Galerkin discretization of the eigenproblem —
    the Safta–Najm / Griebel–Li per-level convergence axis — while the
    truncation rank is held (up to availability) at ``rank``.  Eigensolves
    go through :func:`repro.core.galerkin.solve_kle` and therefore hit the
    same disk cache the experiments use.  ``solve_kle`` picks each level's
    eigensolver from its triangle count: dense on coarse levels, the
    matrix-free randomized solver above
    :data:`~repro.core.galerkin.DENSE_KLE_MAX_TRIANGLES` — exactly the
    regime where dense assembly stops fitting.  The per-level choices are
    recorded in :attr:`solver_methods`.
    """

    def __init__(
        self,
        kernel: Union[CovarianceKernel, Mapping[str, CovarianceKernel]],
        meshes: Sequence[TriangleMesh],
        *,
        rank: int = 25,
        num_eigenpairs: Optional[int] = None,
        cache: Union[ArtifactCache, str, None] = None,
    ):
        from repro.core.galerkin import kle_eigensolver, solve_kle

        meshes = list(meshes)
        if not meshes:
            raise ValueError("need at least one mesh")
        counts = [mesh.num_triangles for mesh in meshes]
        if any(b <= a for a, b in zip(counts, counts[1:])):
            raise ValueError(
                f"meshes must be strictly coarse-to-fine, got triangle "
                f"counts {counts}"
            )
        if isinstance(kernel, CovarianceKernel):
            kernels: Dict[str, CovarianceKernel] = {
                name: kernel for name in STATISTICAL_PARAMETERS
            }
        else:
            kernels = dict(kernel)
            if not kernels:
                raise ValueError("need at least one parameter kernel")
        rank = int(rank)
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")

        models: List[LevelModel] = []
        for mesh in meshes:
            pairs = min(
                num_eigenpairs if num_eigenpairs else max(4 * rank, 32),
                mesh.num_triangles,
            )
            solved: Dict[str, KLEResult] = {}
            by_kernel: Dict[int, KLEResult] = {}
            for name, kern in kernels.items():
                key = id(kern)
                if key not in by_kernel:
                    by_kernel[key] = solve_kle(
                        kern,
                        mesh,
                        num_eigenpairs=pairs,
                        cache=cache,
                    )
                solved[name] = by_kernel[key]
            level_ranks = {
                name: min(rank, kle.num_eigenpairs)
                for name, kle in solved.items()
            }
            models.append(
                LevelModel(
                    kles=solved,
                    ranks=level_ranks,
                    label=f"mesh-{mesh.num_triangles}",
                    parameter=float(mesh.num_triangles),
                )
            )
        super().__init__(models)
        #: Eigensolver method actually used at each level, coarsest first.
        self.solver_methods: Tuple[str, ...] = tuple(
            kle_eigensolver(mesh.num_triangles) for mesh in meshes
        )


class SurrogateKLEHierarchy(LevelHierarchy):
    """Two-level model-fidelity ladder: linearized timer → full MC STA.

    Level 0 evaluates the worst delay through a first-order response
    surface in ξ-space (built once from ``2d + 1`` finite-difference STA
    rows, then one small matmul per batch); level 1 couples the full STA
    to the surrogate on identical ξ.  The telescoped estimator is
    *unbiased* for the full rank-``r`` KLE Monte-Carlo mean — the
    surrogate's model error cancels in ``E[Q_1 − Q_0]`` — while almost
    all samples land on the cheap level, which is what delivers the
    matched-accuracy speedup over single-level KLE MC.
    """

    def __init__(
        self,
        kle: Union[KLEResult, Mapping[str, KLEResult]],
        *,
        r: int = 25,
    ):
        kles = _normalize_kles(kle)
        r = int(r)
        ranks = {name: r for name in kles}
        super().__init__(
            [
                LevelModel(
                    kles=kles,
                    ranks=ranks,
                    label=f"linear-r{r}",
                    parameter=float(r),
                    timer="linear",
                ),
                LevelModel(
                    kles=kles,
                    ranks=ranks,
                    label=f"sta-r{r}",
                    parameter=float(r),
                ),
            ]
        )
        self.r = r
