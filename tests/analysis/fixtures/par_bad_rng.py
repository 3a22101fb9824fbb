"""Pool workers reach unseeded RNG (REPRO-RNG001, REPRO-SEED001).

``sample_worker`` reaches legacy ``np.random.randn`` through a helper;
``entropy_worker`` constructs an unseeded ``default_rng()`` directly.
Both make parallel runs draw per-worker entropy streams.
"""

from concurrent.futures import ProcessPoolExecutor
from typing import Iterable

import numpy as np


def draw(count: int) -> np.ndarray:
    return np.random.randn(count)


def sample_worker(count: int) -> np.ndarray:
    return draw(count)


def entropy_worker(count: int) -> np.ndarray:
    rng = np.random.default_rng()
    return rng.standard_normal(count)


def fan_out(counts: Iterable[int]) -> None:
    with ProcessPoolExecutor() as pool:
        for count in counts:
            pool.submit(sample_worker, count)
            pool.submit(entropy_worker, count)
