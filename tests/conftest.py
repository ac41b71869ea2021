import numpy as np
import pytest

from dplab import BorelSet, DpSample, exponential_base, normal_base, uniform_base


@pytest.fixture
def uniform01():
    return uniform_base()


@pytest.fixture
def exp1():
    return exponential_base(1.0)


@pytest.fixture
def std_normal():
    return normal_base(0.0, 1.0)


@pytest.fixture
def canonical_cells():
    """The three-cell partition used throughout the normality checks."""
    return [
        BorelSet.interval(0.0, 0.25),
        BorelSet.interval(0.25, 0.5),
        BorelSet.interval(0.5, 1.0),
    ]


def make_sample(atoms, weights, remainder=0.0) -> DpSample:
    return DpSample(np.asarray(atoms, float), np.asarray(weights, float), remainder)
