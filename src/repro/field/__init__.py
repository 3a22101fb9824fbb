"""Random-field models of intra-die variation and MC sample generation.

- :class:`RandomField` — grid-less kernel model with exact Cholesky
  sampling (the Algorithm 1 substrate).
- :class:`GridModel` / :class:`GridPCA` — the grid-based baseline [5].
- :class:`CholeskySampleGenerator` / :class:`KLESampleGenerator` — the
  paper's Algorithm 1 and Algorithm 2 parameter-sample generators.
- :class:`FieldSamples` / :class:`GateBasis` — Algorithm 2 samples kept
  factored as ξ plus the ξ → gate map (:func:`gate_basis`).
"""

from repro.field.random_field import RandomField
from repro.field.grid_model import (
    GridModel,
    GridPCA,
    adhoc_taper_grid_model,
    grid_model_from_kernel,
)
from repro.field.sampling import (
    CholeskySampleGenerator,
    FieldSamples,
    GateBasis,
    KLESampleGenerator,
    SampleGenerationResult,
    gate_basis,
)

__all__ = [
    "RandomField",
    "GridModel",
    "GridPCA",
    "adhoc_taper_grid_model",
    "grid_model_from_kernel",
    "CholeskySampleGenerator",
    "KLESampleGenerator",
    "SampleGenerationResult",
    "FieldSamples",
    "GateBasis",
    "gate_basis",
]
