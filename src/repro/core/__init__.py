"""The paper's primary contribution: numerical KLE of arbitrary kernels.

The flow is kernel → mesh → Galerkin eigenproblem → truncated KLE:

>>> from repro.core import paper_experiment_kernel, solve_kle
>>> from repro.mesh import paper_mesh
>>> kernel = paper_experiment_kernel()
>>> mesh = paper_mesh()                          # 28° / 0.1 % area mesh
>>> kle = solve_kle(kernel, mesh, num_eigenpairs=200)
>>> r = kle.select_truncation()                  # the 1 % criterion
>>> samples = kle.sample_triangle_values(1000, r=r, seed=0)
"""

from repro.core.kernels import (
    AnisotropicGaussianKernel,
    CovarianceKernel,
    ExponentialKernel,
    GaussianKernel,
    IsotropicKernel,
    LinearConeKernel,
    MaternBesselKernel,
    NonstationaryVarianceKernel,
    NuggetKernel,
    ProductKernel,
    RadialExponentialKernel,
    ScaledKernel,
    SeparableExponentialKernel,
    SphericalKernel,
    SumKernel,
    gram_row_tiles,
    pairwise_distances,
)
from repro.core.extraction import (
    AnisotropyReport,
    Correlogram,
    detect_anisotropy,
    ExtractionResult,
    empirical_correlogram,
    extract_kernel,
    measurement_noise_floor,
)
from repro.core.kernel_fit import (
    KernelFitResult,
    fit_exponential_to_profile,
    fit_gaussian_to_linear_kernel_2d,
    fit_gaussian_to_profile,
    fit_to_linear_kernel_1d,
    paper_experiment_kernel,
)
from repro.core.quadrature import (
    CENTROID_RULE,
    SEVEN_POINT_RULE,
    THREE_POINT_RULE,
    TriangleRule,
    get_rule,
)
from repro.core.galerkin import (
    assemble_galerkin_matrix,
    kle_cache_key,
    kle_eigensolver,
    mesh_fingerprint,
    solve_kle,
)
from repro.core.galerkin_linear import (
    LinearKLEResult,
    assemble_linear_galerkin_matrix,
    linear_mass_matrix,
    solve_kle_linear,
)
from repro.core.kle import KLEResult, select_truncation
from repro.core.analytic import (
    Analytic1DEigenpair,
    Separable2DEigenpair,
    analytic_truncated_variance_1d,
    evaluate_series_covariance,
    exponential_kle_1d,
    make_field_sampler_2d,
    separable_exponential_kle_2d,
)
from repro.core.validation import (
    ReconstructionReport,
    die_grid,
    eigenfunction_orthonormality_defect,
    kernel_reconstruction_report,
    mercer_variance_defect,
    probe_kernel_validity,
)

__all__ = [
    # kernels
    "CovarianceKernel",
    "IsotropicKernel",
    "GaussianKernel",
    "ExponentialKernel",
    "SeparableExponentialKernel",
    "RadialExponentialKernel",
    "MaternBesselKernel",
    "LinearConeKernel",
    "SphericalKernel",
    "ScaledKernel",
    "SumKernel",
    "ProductKernel",
    "NuggetKernel",
    "AnisotropicGaussianKernel",
    "NonstationaryVarianceKernel",
    "pairwise_distances",
    "gram_row_tiles",
    # extraction
    "AnisotropyReport",
    "Correlogram",
    "detect_anisotropy",
    "ExtractionResult",
    "empirical_correlogram",
    "extract_kernel",
    "measurement_noise_floor",
    # fitting
    "KernelFitResult",
    "fit_gaussian_to_profile",
    "fit_exponential_to_profile",
    "fit_to_linear_kernel_1d",
    "fit_gaussian_to_linear_kernel_2d",
    "paper_experiment_kernel",
    # quadrature
    "TriangleRule",
    "CENTROID_RULE",
    "THREE_POINT_RULE",
    "SEVEN_POINT_RULE",
    "get_rule",
    # galerkin / kle
    "assemble_galerkin_matrix",
    "kle_cache_key",
    "kle_eigensolver",
    "mesh_fingerprint",
    "solve_kle",
    "LinearKLEResult",
    "assemble_linear_galerkin_matrix",
    "linear_mass_matrix",
    "solve_kle_linear",
    "KLEResult",
    "select_truncation",
    # analytic baseline
    "Analytic1DEigenpair",
    "Separable2DEigenpair",
    "exponential_kle_1d",
    "separable_exponential_kle_2d",
    "analytic_truncated_variance_1d",
    "evaluate_series_covariance",
    "make_field_sampler_2d",
    # validation
    "ReconstructionReport",
    "die_grid",
    "kernel_reconstruction_report",
    "mercer_variance_defect",
    "probe_kernel_validity",
    "eigenfunction_orthonormality_defect",
]
