"""Weak Fourier sampling: isotypic projectors, the phase-estimation Kraus
characterization, seeded measurement, and the irrep sampling distribution
on the maximally entangled state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericalConsistencyError, require_bytes
from .symgroup import Partition, enumerate_partitions, irrep_dimension
from .yyrep import GroupRep, character_vector, group_sum, irrep, rep_stack, summed_stacks

RANK_TOL = 1e-6


@dataclass(frozen=True)
class Projector:
    """A Hermitian idempotent with integer trace."""

    matrix: np.ndarray
    rank: int

    @staticmethod
    def from_matrix(matrix: np.ndarray) -> "Projector":
        trace = np.trace(matrix)
        rank = round(trace.real)
        if abs(trace - rank) > RANK_TOL:
            raise NumericalConsistencyError(
                f"projector trace {trace} is not within {RANK_TOL} of an integer"
            )
        matrix = np.asarray(matrix)
        matrix.setflags(write=False)
        return Projector(matrix=matrix, rank=rank)


@dataclass(frozen=True)
class KrausElement:
    """Kraus element of the generalized phase estimation channel, mapping
    the target space into (control tensor target)."""

    matrix: np.ndarray
    shape_label: Partition


def wfs_projector(rep: GroupRep, shape: Partition) -> Projector:
    """Isotypic projector (d/|G|) sum_g chi^shape(g)* rep(g); S_n
    characters are real, so the weights are d/|G| chi^shape."""
    if shape.n != rep.n:
        raise InvalidArgumentError(f"degree mismatch: partition of {shape.n}, rep of S_{rep.n}")
    summed_stacks(rep)  # refuse an oversized stack before the characters enumerate S_n
    weights = (irrep_dimension(shape) / math.factorial(rep.n)) * character_vector(shape)
    return Projector.from_matrix(group_sum(rep, weights))


def wfs_povm(rep: GroupRep) -> list[tuple[Partition, Projector]]:
    """One projector per partition of n, in canonical partition order."""
    return [(shape, wfs_projector(rep, shape)) for shape in enumerate_partitions(rep.n)]


def gpe_kraus(rep: GroupRep, shape: Partition) -> KrausElement:
    """Kraus element (1/sqrt|G|) sum_g (Pi_shape FT|g>) tensor rep(g) of the
    generalized phase estimation circuit.  Only shape's d^2 control rows,
    sqrt(d/|G|) rho^shape_ij(g), are nonzero: their group_sum over sqrt|G|."""
    if shape.n != rep.n:
        raise InvalidArgumentError(f"degree mismatch: partition of {shape.n}, rep of S_{rep.n}")
    size = math.factorial(rep.n)
    d = irrep_dimension(shape)
    # The output and the d^2 sums (D x D float64 blocks), and the weights.
    nbytes = (size + d * d) * rep.dim**2 * 8 + d * d * size * 8
    require_bytes(nbytes, f"the Kraus element of {shape} at D = {rep.dim}")
    # sqrt(d/|G|) / sqrt|G| = sqrt(d) / |G|.
    weights = (math.sqrt(d) / size) * rep_stack(irrep(shape)).reshape(size, d * d).T
    shapes = enumerate_partitions(rep.n)
    offset = sum(irrep_dimension(p) ** 2 for p in shapes[: shapes.index(shape)])
    out = np.zeros((size, rep.dim, rep.dim))
    out[offset : offset + d * d] = group_sum(rep, weights)
    return KrausElement(matrix=out.reshape(size * rep.dim, rep.dim), shape_label=shape)


def measure_wfs(
    rep: GroupRep, psi: np.ndarray, seed: int
) -> tuple[Partition, np.ndarray]:
    """Sample an irrep label with probability <psi|Xi|psi> and return the
    normalized post-measurement state.  Deterministic given the seed.  A
    lift sigma tensor I is measured on its base, with no lifted matrix:
    psi = vec X, probability ||Xi X||_F^2, post-state vec(Xi X) normalized."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (rep.dim,):
        raise InvalidArgumentError(f"state has dimension {psi.shape}, rep has {rep.dim}")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-8:
        raise InvalidArgumentError("state must be a unit vector")
    base = rep.base if rep.kind == "lift" else rep
    x = psi.reshape(base.dim, -1)
    povm = wfs_povm(base)
    images = [p.matrix @ x for _, p in povm]
    probs = np.array([np.sum(y.real**2 + y.imag**2) for y in images])
    total = probs.sum()
    if abs(total - 1.0) > 1e-6:
        raise NumericalConsistencyError(f"measurement probabilities sum to {total}")
    rng = np.random.default_rng(seed)
    choice = rng.choice(len(povm), p=probs / total)
    # Not np.linalg.norm: its BLAS dot splits the sum by thread count.
    post = images[choice].reshape(-1)
    return povm[choice][0], post / math.sqrt(probs[choice])


def lightning_distribution(mu: Partition, nu: Partition) -> dict[Partition, float]:
    """Distribution of the sampled irrep label when weak Fourier sampling is
    applied to the maximally entangled state: shape -> (d/(d_mu d_nu)) * m."""
    if mu.n != nu.n:
        raise InvalidArgumentError(f"degree mismatch: {mu} vs {nu}")
    from .kronecker import kronecker_coefficient  # avoid import cycle

    d_mu, d_nu = irrep_dimension(mu), irrep_dimension(nu)
    weights = {
        shape: irrep_dimension(shape) * kronecker_coefficient(mu, nu, shape).value
        for shape in enumerate_partitions(mu.n)
    }
    total = sum(weights.values())
    if total != d_mu * d_nu:
        raise NumericalConsistencyError(
            f"lightning weights sum to {total}, not d_mu d_nu = {d_mu * d_nu}"
        )
    return {shape: w / (d_mu * d_nu) for shape, w in weights.items()}
