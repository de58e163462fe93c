"""Vectorization calculus, maximally entangled states over the range of a
projector, the post-sampling states on a doubled register, and the irrep
blocks of an isotypic component, which come from the Young lattice of wfs
with no sum over the group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidArgumentError, require_bytes
from .symgroup import Partition, axial_distance, enumerate_tableaux, irrep_dimension
from .wfs import LATTICE_SPARE, Projector, by_columns, tableau_projector, wfs_projector
from .yyrep import GroupRep, turn


@dataclass(frozen=True)
class StateVector:
    """A unit vector with register-dimension metadata."""

    registers: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.dim,):
            raise InvalidArgumentError(
                f"amplitude vector of length {amps.shape} does not match registers {self.registers}"
            )
        if not abs(np.linalg.norm(amps) - 1.0) <= 1e-9:  # also rejects NaN
            raise InvalidArgumentError("state vector must have unit norm")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return math.prod(self.registers)


def norm_sq(v: np.ndarray) -> float:
    """Squared norm as a NumPy sum: the BLAS dot behind np.linalg.norm
    splits its sum by thread count, so its last bits depend on
    OPENBLAS_NUM_THREADS.  A real v skips its zero imaginary part: x^2 + 0.0 = x^2."""
    return float(np.sum(v**2 if np.isrealobj(v) else v.real**2 + v.imag**2))


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
    (|G|/d) Xi_shape applied to the left register."""
    if shape.n != rep.n:
        raise InvalidArgumentError(f"degree mismatch: partition of {shape.n}, rep of S_{rep.n}")
    d = rep.dim
    phi = np.asarray(phi, dtype=complex)
    if phi.shape != (d * d,):
        raise InvalidArgumentError(f"phi must live on C^{d * d}, got {phi.shape}")
    xi = wfs_projector(rep, shape).matrix
    scale = math.factorial(rep.n) / irrep_dimension(shape)
    raw = vec(scale * by_columns(xi, unvec(phi, d)))
    weight = norm_sq(raw)
    if weight < 1e-12:
        raise DegenerateInputError(
            f"phi has no component in the {shape} isotypic subspace"
        )
    return (
        StateVector(registers=(d, d), amplitudes=raw / math.sqrt(weight)),
        weight,
    )


def isotypic_block_basis(rep: GroupRep, shape: Partition) -> list[np.ndarray]:
    """Orthonormal bases of the individual irrep blocks inside the shape
    isotypic component of rep, aligned so that rep(g) B_a = B_a rho^shape(g).

    The seeds, one per block, are the columns of L in the pivoted Cholesky
    e_11 = L L^T of the 0/1 projector onto the Gelfand-Tsetlin weight of
    shape's first tableau: orthonormal and, unlike eigh's, independent of the
    BLAS thread count.  Each is carried along the Young-Yamanouchi basis by
    the seminormal rule: if T = sigma_i P with P before T, v_T = (rep(sigma_i)
    - 1/tau) v_P / sqrt(1 - 1/tau^2), tau the axial distance of i in P.
    Returns one D x d matrix per block (possibly none); conjugating rep by
    the stacked basis yields I_m tensor rho^shape.
    """
    if shape.n != rep.n:
        raise InvalidArgumentError(f"degree mismatch: partition of {shape.n}, rep of S_{rep.n}")
    tableaux = enumerate_tableaux(shape)
    # e_11's lattice along one chain, which outlasts e_11, its factor and the d transported
    # columns of at most D / d seeds (tracemalloc: 5 D x D arrays at D = 144 and 490).
    require_bytes((2 + LATTICE_SPARE) * rep.dim**2 * 8,
                  f"the irrep blocks of {shape} at D = {rep.dim}")
    e11 = tableau_projector(rep, tableaux[0])
    rank = Projector.from_matrix(e11).rank  # its trace must be an integer
    seeds, residual = np.zeros((rep.dim, rank)), e11.diagonal().copy()
    for k in range(rank):
        j = int(np.argmax(residual))
        col = e11[:, j] - seeds[:, :k] @ seeds[j, :k]
        seeds[:, k] = col / math.sqrt(col[j])
        residual -= seeds[:, k] ** 2
    index = {t.rows: k for k, t in enumerate(tableaux)}
    cols = np.empty((len(tableaux), rep.dim, rank))
    cols[0] = seeds
    for k, t in enumerate(tableaux[1:], start=1):
        # The first i with i + 1 in a higher row: swapping them gives an
        # earlier tableau.
        i = next(i for i in range(1, rep.n) if t.position_of(i + 1)[0] < t.position_of(i)[0])
        parent = t.swap(i)
        tau = axial_distance(parent, i)
        v = cols[index[parent.rows]]
        cols[k] = (turn(rep, (i, i + 1), v).T - v / tau) / math.sqrt(1.0 - 1.0 / tau**2)
    return list(cols.transpose(2, 1, 0))
