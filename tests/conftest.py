"""Oracles shared by several test files."""

import numpy as np
import pytest

from snverify.symgroup import enumerate_group
from snverify.yyrep import rep_evaluate


def _commutant(rep) -> np.ndarray:
    """W = (1/|G|) sum_g rep(g) tensor rep(g)*, on C^{D^2}, summed one element
    at a time through rep_evaluate: the dense D^2 x D^2 projection onto the
    commutant, for small D only."""
    group = enumerate_group(rep.n)
    total = sum(np.kron(rep_evaluate(rep, g), rep_evaluate(rep, g).conj()) for g in group)
    return total / len(group)


@pytest.fixture
def commutant_oracle():
    return _commutant
