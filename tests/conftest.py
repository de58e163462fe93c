"""Oracles shared by several test files."""

import numpy as np
import pytest

from snverify.symgroup import enumerate_group, enumerate_partitions, irrep_dimension
from snverify.yyrep import rep_evaluate, rep_stack


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


def _stack_average(rep, x) -> np.ndarray:
    """(1/|G|) sum_g rep(g) X rep(g)^T over rep's whole stack (a lift's
    is its base's times the identity): the group average element by
    element, against which channel_E's coset tower is checked."""
    if rep.kind == "lift":
        stack = np.array([np.kron(s, np.eye(rep.lift_dim)) for s in rep_stack(rep.base)])
    else:
        stack = rep_stack(rep)
    return (stack @ x @ stack.transpose(0, 2, 1)).mean(axis=0)


@pytest.fixture
def stack_average():
    return _stack_average


def _ft_row_order(n: int) -> list:
    """Row index order of the Fourier matrix: partitions in
    reverse-lexicographic order, then (i, j) row-major."""
    return [
        (shape, i, j)
        for shape in enumerate_partitions(n)
        for i in range(irrep_dimension(shape))
        for j in range(irrep_dimension(shape))
    ]


@pytest.fixture
def ft_row_order():
    return _ft_row_order
