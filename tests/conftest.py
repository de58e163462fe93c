"""Oracles shared by several test files."""

import math
from functools import lru_cache

import numpy as np
import pytest

from snverify.symgroup import (
    conjugacy_class_of,
    enumerate_group,
    enumerate_partitions,
    irrep_dimension,
)
from snverify.yyrep import irrep, irrep_character, rep_evaluate, rep_stack


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
    """(1/|G|) sum_g rep(g) X rep(g)^T over rep's whole stack: the group
    average element by element, against which channel_E's coset tower is
    checked."""
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


@lru_cache(maxsize=None)
def _character_vector(shape) -> np.ndarray:
    """chi^shape(g) for every g of enumerate_group(shape.n)."""
    return np.array([
        irrep_character(shape, conjugacy_class_of(g)) for g in enumerate_group(shape.n)
    ], dtype=float)


def _group_sum(rep, weights) -> np.ndarray:
    """sum_g w(g) rep(g) over enumerate_group(rep.n), for weights of shape
    (|G|,) or (k, |G|).  A tensor product contracts its two factor stacks,
    sum_g w(g) A_g x B_g, and builds no stack of its own; I_m x rho sums
    over the irrep and takes the Kronecker product with the identity."""
    weights = np.asarray(weights, dtype=float)
    if rep.kind == "identity-times-irrep":
        pair = (np.eye(rep.lift_dim), _group_sum(rep.base, weights))
        return np.einsum("...ij,...kl->...ikjl", *pair).reshape(*weights.shape[:-1], rep.dim, rep.dim)
    if rep.kind == "tensor":
        a, b = (rep_stack(irrep(shape)) for shape in rep.labels)
        block = np.einsum("...g,gij,gkl->...ikjl", weights, a, b)
        return block.reshape(*weights.shape[:-1], rep.dim, rep.dim)
    return np.einsum("...g,gij->...ij", weights, rep_stack(rep))


def _group_sum_projector(rep, shape) -> np.ndarray:
    """Xi = (d/|G|) sum_g chi^shape(g) rep(g), as a whole-group sum."""
    return _group_sum(rep, irrep_dimension(shape) / math.factorial(rep.n) * _character_vector(shape))


def _matrix_units(rep, shape) -> np.ndarray:
    """The d operators e_i1 = (d/|G|) sum_g rho^shape_i1(g) rep(g), as a
    d x D x D whole-group sum."""
    lam_stack = rep_stack(irrep(shape))
    return _group_sum(rep, (lam_stack.shape[1] / len(lam_stack)) * lam_stack[:, :, 0].T)


@pytest.fixture
def character_vector():
    return _character_vector


@pytest.fixture
def group_sum_projector():
    return _group_sum_projector


@pytest.fixture
def matrix_units():
    return _matrix_units
