import math

import numpy as np
import pytest

from uqc import Normal, Uniform, engine


@pytest.mark.parametrize("mean, stddev", [
    (math.inf, 1.0), (-math.inf, 1.0), (math.nan, 1.0), (0.0, math.inf), (0.0, math.nan),
    (0.0, 0.0), (0.0, -1.0),
])
def test_normal_rejects_non_finite_or_non_positive_parameters(mean, stddev):
    with pytest.raises(ValueError):
        Normal(mean, stddev)


@pytest.mark.parametrize("lower, upper", [
    (-math.inf, 0.0), (0.0, math.inf), (math.nan, 1.0), (0.0, math.nan),
    (-1e308, 1e308),  # finite bounds whose width overflows
    (1.0, 1.0), (1.0, 0.0),
])
def test_uniform_rejects_non_finite_or_empty_intervals(lower, upper):
    with pytest.raises(ValueError):
        Uniform(lower, upper)


def test_extreme_finite_parameters_are_accepted():
    Normal(-1e308, 1e308)
    Uniform(-1e307, 1e307)


# Monte Carlo draws its last input one engine block at a time, by
# consecutive sample calls on one generator, and relies on those blocks
# being the draws one call makes.
@pytest.mark.parametrize("dist", [Normal(50, 10), Uniform(-1, 2)], ids=["normal", "uniform"])
@pytest.mark.parametrize("block", [1, 2, 3, 4, 5, 6, 7, engine._BLOCK])
def test_consecutive_block_draws_equal_one_whole_draw(dist, block):
    n = 2 * block + 5 if block == engine._BLOCK else 10 * block + 3
    whole = np.empty(n)
    dist.sample(np.random.default_rng(3), whole)
    blocks = np.empty(n)
    rng = np.random.default_rng(3)
    for start in range(0, n, block):
        dist.sample(rng, blocks[start:start + block])
    assert blocks.tobytes() == whole.tobytes()
