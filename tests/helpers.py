"""Builders shared across test modules."""

import numpy as np

from bench import random_stream  # noqa: F401  (re-exported for tests)
from evtbr.events import BinarySliceStack, SensorGeometry


def random_stack(
    geometry: SensorGeometry, n_bits: int, seed: int, density: float = 0.5
) -> BinarySliceStack:
    rng = np.random.default_rng(seed)
    slices = rng.random((n_bits, geometry.height, geometry.width)) < density
    return BinarySliceStack(geometry, slices)
