"""Statistical static timing: library, wire models, STA engine, MC-SSTA."""

from repro.timing.library import (
    STATISTICAL_PARAMETERS,
    CellLibrary,
    GateTimingModel,
    Technology,
)
from repro.timing.wire import (
    LN9,
    RCTree,
    WireModel,
    bakoglu_slew,
    peri_slew,
    star_wire_model,
)
from repro.timing.sta import ENGINE_MODES, STAEngine, STAResult
from repro.timing.compiled import CompiledTimingProgram
from repro.timing.ssta import (
    MonteCarloSSTA,
    SampleStream,
    SSTAComparison,
    SSTARun,
    StreamingSTAResult,
    sigma_error_over_outputs,
)
from repro.timing.block_ssta import (
    BlockSSTA,
    BlockSSTAResult,
    CanonicalDelay,
    clark_max,
)
from repro.timing.analysis import (
    CriticalPath,
    DistributionSummary,
    distribution_summary,
    compute_slacks,
    dominant_end_points,
    end_point_criticality,
    nominal_critical_path,
    required_period,
    timing_yield,
)

__all__ = [
    "STATISTICAL_PARAMETERS",
    "CellLibrary",
    "GateTimingModel",
    "Technology",
    "LN9",
    "RCTree",
    "WireModel",
    "bakoglu_slew",
    "peri_slew",
    "star_wire_model",
    "ENGINE_MODES",
    "STAEngine",
    "STAResult",
    "CompiledTimingProgram",
    "MonteCarloSSTA",
    "SampleStream",
    "SSTAComparison",
    "SSTARun",
    "StreamingSTAResult",
    "sigma_error_over_outputs",
    "BlockSSTA",
    "BlockSSTAResult",
    "CanonicalDelay",
    "clark_max",
    "CriticalPath",
    "DistributionSummary",
    "distribution_summary",
    "compute_slacks",
    "dominant_end_points",
    "end_point_criticality",
    "nominal_critical_path",
    "required_period",
    "timing_yield",
]
