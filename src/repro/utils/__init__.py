"""Shared utilities: RNG, linear algebra, streaming stats, artifact cache."""

from repro.utils.artifact_cache import (
    ArtifactCache,
    CacheStats,
    CorruptArtifactError,
    cache_stats,
    format_cache_stats,
    get_cache,
    read_artifact,
    reset_cache_registry,
    write_artifact,
)
from repro.utils.rng import as_generator, spawn_generators
from repro.utils.linalg import (
    cholesky_with_jitter,
    is_positive_semidefinite,
    nearest_psd,
    symmetric_generalized_eigh,
)
from repro.utils.streaming import P2Quantile, RunningMoments

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "CorruptArtifactError",
    "P2Quantile",
    "RunningMoments",
    "as_generator",
    "cache_stats",
    "cholesky_with_jitter",
    "format_cache_stats",
    "get_cache",
    "is_positive_semidefinite",
    "nearest_psd",
    "read_artifact",
    "reset_cache_registry",
    "spawn_generators",
    "symmetric_generalized_eigh",
    "write_artifact",
]
