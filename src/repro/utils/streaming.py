"""Streaming (single-pass, bounded-memory) statistics accumulators.

Chunked SSTA runs and the MLMC estimator consume Monte-Carlo samples as a
stream and never retain them, so every reported statistic must be
computable online:

- :class:`RunningMoments` — first/second moments with the pairwise (Chan
  et al. 1979) batch merge; numerically stable for any chunk count and
  exactly the update :class:`~repro.timing.ssta.StreamingSTAResult` uses.
- :class:`P2Quantile` — the Jain–Chlamtac (1985) P² marker algorithm: a
  running quantile estimate from five markers, O(1) memory, no sample
  retention.  Used for streamed 95th-percentile delay reporting.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np


class RunningMoments:
    """Streaming mean/variance of a scalar sequence, updated in batches.

    Uses the pairwise (Chan et al.) merge of ``(count, mean, M2)`` summary
    triples, so accumulation order does not degrade accuracy.  ``variance``
    follows the unbiased (``ddof=1``) convention used by MLMC level-variance
    estimates; ``variance_population`` matches :func:`numpy.var`.
    """

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0

    def push(self, values: np.ndarray) -> None:
        """Merge a batch of observations into the running moments."""
        values = np.asarray(values, dtype=float).ravel()
        n_b = values.size
        if n_b == 0:
            return
        mean_b = float(np.mean(values))
        m2_b = float(np.sum((values - mean_b) ** 2))
        n_a = self.count
        n = n_a + n_b
        delta = mean_b - self._mean
        self._mean += delta * n_b / n
        self._m2 += m2_b + delta * delta * n_a * n_b / n
        self.count = n

    @property
    def mean(self) -> float:
        """Running sample mean (0.0 before any observation)."""
        return self._mean

    @property
    def variance(self) -> float:
        """Unbiased (ddof=1) sample variance; 0.0 with fewer than 2 obs."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def variance_population(self) -> float:
        """Population (ddof=0) variance, matching :func:`numpy.var`."""
        if self.count == 0:
            return 0.0
        return self._m2 / self.count

    @property
    def std(self) -> float:
        """Population standard deviation (matches :func:`numpy.std`)."""
        return float(np.sqrt(self.variance_population))

    @property
    def sem(self) -> float:
        """Standard error of the running mean (``sqrt(var/n)``, ddof=1)."""
        if self.count < 2:
            return float("inf") if self.count else 0.0
        return float(np.sqrt(self.variance / self.count))

    def merge(self, other: "RunningMoments") -> None:
        """Fold another accumulator into this one (pairwise Chan merge).

        Merging an empty accumulator (``count == 0``) is a no-op on
        either side: one that never observed a sample contributes
        nothing rather than a ``0/0`` NaN.  Accumulators filled
        separately combine without retaining samples.
        """
        n_b = other.count
        if n_b == 0:
            return
        n_a = self.count
        n = n_a + n_b
        delta = other._mean - self._mean
        self._mean += delta * n_b / n
        self._m2 += other._m2 + delta * delta * n_a * n_b / n
        self.count = n


#: Marker-position increments of the P² algorithm for quantile ``p``.
def _p2_increments(p: float) -> np.ndarray:
    return np.array([0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0])


class P2Quantile:
    """Running quantile estimate via the P² (piecewise-parabolic) algorithm.

    Maintains five markers whose heights approximate the ``p``-quantile
    and its neighbourhood; each new observation adjusts marker positions
    with a parabolic (or, if non-monotone, linear) interpolation.  Memory
    is O(1) and the estimate converges to the true quantile as the stream
    grows — the classic streaming-quantile trade-off: no retention, a
    small O(1/sqrt(n))-scale approximation error.

    With fewer than five observations the exact empirical quantile of the
    retained prefix is returned.
    """

    def __init__(self, p: float):
        if not 0.0 < p < 1.0:
            raise ValueError(f"p must be in (0, 1), got {p}")
        self.p = float(p)
        self.count = 0
        self._initial: List[float] = []
        self._q: Optional[np.ndarray] = None  # marker heights
        self._n: Optional[np.ndarray] = None  # marker positions (1-based)
        self._np: Optional[np.ndarray] = None  # desired positions
        self._dn = _p2_increments(self.p)

    def update(self, values: np.ndarray) -> None:
        """Feed a batch of observations into the estimator.

        An empty batch is a no-op (streamed runs can legitimately end
        with a zero-sample chunk); single-observation batches are the
        ordinary per-element update.
        """
        values = np.asarray(values, dtype=float).ravel()
        if values.size == 0:
            return
        for value in values:
            self._push(float(value))

    def _push(self, x: float) -> None:
        self.count += 1
        if self._q is None:
            self._initial.append(x)
            if len(self._initial) == 5:
                self._initial.sort()
                self._q = np.array(self._initial, dtype=float)
                self._n = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
                p = self.p
                self._np = np.array(
                    [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0]
                )
                self._initial = []
            return

        q, n = self._q, self._n
        # Locate the cell of x and update the extreme markers.
        if x < q[0]:
            q[0] = x
            k = 0
        elif x >= q[4]:
            q[4] = x
            k = 3
        else:
            k = int(np.searchsorted(q, x, side="right")) - 1
            k = min(max(k, 0), 3)
        n[k + 1 :] += 1.0
        self._np += self._dn

        # Adjust the three interior markers toward their desired positions.
        for i in (1, 2, 3):
            d = self._np[i] - n[i]
            if (d >= 1.0 and n[i + 1] - n[i] > 1.0) or (
                d <= -1.0 and n[i - 1] - n[i] < -1.0
            ):
                sign = 1.0 if d > 0 else -1.0
                candidate = self._parabolic(i, sign)
                if not q[i - 1] < candidate < q[i + 1]:
                    candidate = self._linear(i, sign)
                q[i] = candidate
                n[i] += sign

    def _parabolic(self, i: int, d: float) -> float:
        q, n = self._q, self._n
        return q[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        q, n = self._q, self._n
        j = i + int(d)
        return q[i] + d * (q[j] - q[i]) / (n[j] - n[i])

    def value(self) -> float:
        """The current quantile estimate (NaN before any observation)."""
        if self._q is not None:
            return float(self._q[2])
        if not self._initial:
            return float("nan")
        return float(np.quantile(np.array(self._initial), self.p))
