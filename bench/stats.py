"""Order statistics and Monte-Carlo estimate checks for the benchmark.

Standard library only: the parent process and ``compare`` never import
the program or numpy.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import List, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated ``q``-th percentile (``0 <= q <= 100``)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def iqr(values: Sequence[float]) -> float:
    """Interquartile range, as ``statistics.quantiles(values, n=4)`` gives it."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


@dataclass(frozen=True)
class Moments:
    """Sample count, mean and sum of squared deviations of one stream."""

    n: int
    mean: float
    m2: float

    @classmethod
    def from_std(cls, n: int, mean: float, std: float) -> "Moments":
        """From a population standard deviation (``ddof=0``)."""
        return cls(int(n), float(mean), float(std) ** 2 * int(n))

    def merge(self, other: "Moments") -> "Moments":
        """Pairwise (Chan et al.) combination of two streams."""
        n = self.n + other.n
        delta = other.mean - self.mean
        return Moments(
            n,
            self.mean + delta * other.n / n,
            self.m2 + other.m2 + delta * delta * self.n * other.n / n,
        )

    @property
    def std(self) -> float:
        return math.sqrt(self.m2 / self.n)


def pool(parts: Sequence[Moments]) -> Moments:
    pooled = parts[0]
    for part in parts[1:]:
        pooled = pooled.merge(part)
    return pooled


@dataclass(frozen=True)
class Estimate:
    """A mean and a standard deviation, each with its standard error."""

    mean: float
    mean_se: float
    std: float
    std_se: float

    @classmethod
    def from_moments(cls, moments: Moments, kurt: float) -> "Estimate":
        """Plain Monte Carlo: ``se(σ) = σ √((κ − 1) / 4n)`` for kurtosis κ."""
        std = moments.std
        return cls(
            moments.mean,
            std / math.sqrt(moments.n),
            std,
            std * math.sqrt(max(kurt - 1.0, 0.0) / (4.0 * moments.n)),
        )


def average(estimates: Sequence[Estimate]) -> Estimate:
    """Mean of independent estimates, with their errors combined."""
    k = len(estimates)
    return Estimate(
        math.fsum(e.mean for e in estimates) / k,
        math.sqrt(math.fsum(e.mean_se ** 2 for e in estimates)) / k,
        math.fsum(e.std for e in estimates) / k,
        math.sqrt(math.fsum(e.std_se ** 2 for e in estimates)) / k,
    )


def disagreements(
    label: str, observed: Estimate, expected: Estimate, z: float = 4.0
) -> List[str]:
    """Messages for each of mean and σ further than ``z`` joint errors apart."""
    failures = []
    for what, got, want, se_got, se_want in (
        ("mean", observed.mean, expected.mean, observed.mean_se, expected.mean_se),
        ("std", observed.std, expected.std, observed.std_se, expected.std_se),
    ):
        joint = math.hypot(se_got, se_want)
        if not abs(got - want) <= z * joint:
            failures.append(
                f"{label} worst-delay {what} {got:.4f} ps is "
                f"{abs(got - want) / joint if joint else math.inf:.1f} "
                f"standard errors from the stored {want:.4f} ps"
            )
    return failures
