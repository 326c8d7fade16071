"""Input probability distributions for uncertain model inputs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np


@dataclass(frozen=True)
class Normal:
    """Normal distribution parameterized by mean and standard deviation."""

    mean: float
    stddev: float

    def __post_init__(self):
        if not self.stddev > 0:
            raise ValueError(f"stddev must be positive, got {self.stddev}")
        if not (math.isfinite(self.mean) and math.isfinite(self.stddev)):
            raise ValueError(f"need a finite mean and stddev, got ({self.mean}, {self.stddev})")

    def from_standard(self, x):
        """Map standardized coordinates (zero mean, unit variance) to values."""
        return self.mean + self.stddev * np.asarray(x, dtype=float)

    def standardize(self, u):
        return (np.asarray(u, dtype=float) - self.mean) / self.stddev

    def sample(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Fill `out` with draws, bit for bit those of rng.normal."""
        rng.standard_normal(out=out)
        out *= self.stddev
        out += self.mean


@dataclass(frozen=True)
class Uniform:
    """Uniform distribution on [lower, upper]."""

    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(f"need lower < upper, got [{self.lower}, {self.upper}]")
        if not math.isfinite(self.upper - self.lower):
            raise ValueError(f"need a finite upper - lower, got [{self.lower}, {self.upper}]")

    def from_standard(self, x):
        """Map standardized coordinates on [-1, 1] to [lower, upper]."""
        mid = 0.5 * (self.lower + self.upper)
        half = 0.5 * (self.upper - self.lower)
        return mid + half * np.asarray(x, dtype=float)

    def standardize(self, u):
        mid = 0.5 * (self.lower + self.upper)
        half = 0.5 * (self.upper - self.lower)
        return (np.asarray(u, dtype=float) - mid) / half

    def sample(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Fill `out` with draws, bit for bit those of rng.uniform."""
        rng.random(out=out)
        out *= self.upper - self.lower
        out += self.lower


Distribution = Union[Normal, Uniform]
