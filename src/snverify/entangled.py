"""Vectorization calculus, maximally entangled states over the range of a
projector, and the post-sampling states on a doubled register, projected
through the irrep blocks of wfs with no sum over the group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidArgumentError, require_bytes
from .symgroup import Partition, irrep_dimension
from .wfs import Projector, block_columns, by_columns, isotypic_block_basis, norm_sq
from .yyrep import GroupRep


@dataclass(frozen=True)
class StateVector:
    """A unit vector with register-dimension metadata."""

    registers: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        registers = self.registers
        if not (isinstance(registers, tuple) and registers and all(
                isinstance(r, (int, np.integer)) and not isinstance(r, bool) and r >= 1
                for r in registers)):
            raise InvalidArgumentError(
                f"registers must be a nonempty tuple of positive integers, got {registers!r}")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.dim,):
            raise InvalidArgumentError(
                f"amplitude vector of length {amps.shape} does not match registers {self.registers}"
            )
        with np.errstate(over="ignore"):  # an overflowing norm is inf and fails
            if not abs(np.linalg.norm(amps) - 1.0) <= 1e-9:  # also rejects NaN
                raise InvalidArgumentError("state vector must have unit norm")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return math.prod(self.registers)


def vec(a: np.ndarray) -> np.ndarray:
    """Row-major vectorization |vec A> = sum_ij A_ij |i>|j> (unnormalized)."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidArgumentError(f"vec expects a square matrix, got shape {a.shape}")
    return a.reshape(-1)


def unvec(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of vec for a d x d matrix."""
    v = np.asarray(v, dtype=complex)
    if v.shape != (d * d,):
        raise InvalidArgumentError(f"vector of length {v.shape} is not d^2 with d = {d}")
    return v.reshape(d, d)


def phi_plus(d: int) -> StateVector:
    """The maximally entangled state vec(I_d)/sqrt(d)."""
    if d < 1:
        raise InvalidArgumentError(f"dimension must be positive, got {d}")
    # The complex vec(I) and its normalized copy.
    require_bytes(2 * d * d * 16, f"phi-plus on C^{d} x C^{d}")
    return StateVector(registers=(d, d), amplitudes=vec(np.eye(d)) / math.sqrt(d))


def max_entangled_over_range(proj: Projector) -> StateVector:
    """The maximally entangled state over range(P), vec(P)/sqrt(rank P),
    normalized by the exact integer rank."""
    if proj.rank < 1:
        raise InvalidArgumentError("cannot build a maximally entangled state over a zero subspace")
    d = len(proj.matrix)
    return StateVector(registers=(d, d), amplitudes=vec(proj.matrix) / math.sqrt(proj.rank))


def psi_lambda(
    rep: GroupRep, shape: Partition, phi: np.ndarray
) -> tuple[StateVector, float]:
    """Post-weak-Fourier-sampling state on a doubled register:
    normalized sum_h chi^shape(h)* (rep(h) tensor I_D) |phi>, together
    with the squared norm of the unnormalized sum.  The sum is
    (|G|/d) B (B^T X) for phi = vec X, B the irrep blocks of shape."""
    d = rep.dim
    phi = np.asarray(phi, dtype=complex)
    if phi.shape != (d * d,):
        raise InvalidArgumentError(f"phi must live on C^{d * d}, got {phi.shape}")
    if not np.isfinite(phi).all():
        raise InvalidArgumentError("phi must have finite amplitudes")
    blocks = isotypic_block_basis(rep, shape)
    m, d_lam, _ = blocks.shape
    # The blocks, B and Z = B^T X beside by_columns' 4 D^2 floats, or the
    # image beside norm_sq's three D^2 (tracemalloc).
    require_bytes((5 * d + 4 * m * d_lam) * d * 8, f"psi-lambda of {shape} at D = {d}")
    image = by_columns(block_columns(blocks), by_columns(blocks.reshape(-1, d), unvec(phi, d)))
    image *= math.factorial(rep.n) / irrep_dimension(shape)
    raw = vec(image)
    weight = norm_sq(raw)
    if weight < 1e-12:
        raise DegenerateInputError(
            f"phi has no component in the {shape} isotypic subspace"
        )
    return (
        StateVector(registers=(d, d), amplitudes=raw / math.sqrt(weight)),
        weight,
    )
