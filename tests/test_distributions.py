import math

import pytest

from uqc import Normal, Uniform


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
