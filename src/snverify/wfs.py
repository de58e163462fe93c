"""Weak Fourier sampling: isotypic projectors, the phase-estimation Kraus
characterization, seeded measurement, and Kronecker coefficients by their
two routes.

Every isotypic quantity comes from one checked builder, isotypic_block_basis:
the m aligned irrep blocks B_a of the lambda component, as B^T.  Their seeds,
block_seeds, span the projector onto the Gelfand-Tsetlin weight of
lambda's first tableau, by Jucys-Murphy branching along that tableau's
chain of shapes: on the projector onto the kappa-isotypic part under
S_{k-1}, X_k has as eigenvalues the contents of kappa's addable cells
(Okounkov-Vershik, Selecta Math. 1996), so one Lagrange factor per level
picks the chain's cell.  The chain runs on m + 1 probe rows, checked to
have rank the exact m of the character route, characters.multiplicities:
a Kronecker coefficient by rank counts those seeds.  Then Xi_lambda = sum_a
B_a B_a^T, a label is measured with probability ||B^T X||^2 and projected
as B (B^T X), B from block_columns, and the POVM's completeness sums every
label's Xi_lambda a panel of rows at a time, with no projector held whole.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .characters import multiplicities
from .errors import InvalidArgumentError, NumericalConsistencyError, require_bytes
from .symgroup import (Partition, StandardTableau, enumerate_partitions, enumerate_tableaux,
                       irrep_dimension)
from .yyrep import GroupRep, irrep, swap_contents, tableau_contents, tensor_rep, turn

RANK_TOL = 1e-6
EIGEN_ONE_TOL = 1e-8
# Copies of its rows a chain of Lagrange factors holds at once, and of the
# m x d x D blocks their checks hold (tracemalloc: 4.0-4.4 and 4.0-4.1 at D = 144
# to 1,568): Q, a product with X_k and its terms; the blocks and two turns' arrays.
CHAIN_ARRAYS = BLOCK_ARRAYS = 5
# Rows of one label's Gram that povm_ranks forms at a time.
PANEL = 256


@dataclass(frozen=True)
class Projector:
    """A Hermitian idempotent with integer trace."""

    matrix: np.ndarray
    rank: int


@dataclass(frozen=True)
class KrausElement:
    """Kraus element of the generalized phase estimation channel, mapping
    the target space into (control tensor target)."""

    matrix: np.ndarray
    shape_label: Partition


@dataclass(frozen=True)
class Multiplicity:
    value: int
    route: str

    def __post_init__(self):
        if self.value < 0:
            raise NumericalConsistencyError(f"multiplicity {self.value} is negative")


def tableau_projector(rep: GroupRep, tableau: StandardTableau, rows: np.ndarray) -> np.ndarray:
    """rows e_11, for e_11 the projector onto the Gelfand-Tsetlin weight of a
    standard tableau, of rank the multiplicity of its shape: from Q = rows,
    at each level k = 2..n, Q <- Q (X_k - c') / (c - c') for c the content
    of k's cell and c' that of every other cell addable to the shape of
    1..k-1.  rows = I_D gives e_11 itself."""
    if tableau.n != rep.n:
        raise InvalidArgumentError(f"degree mismatch: tableau of {tableau.n}, rep of S_{rep.n}")
    require_bytes(CHAIN_ARRAYS * rows.size * 8, f"the chain of {tableau.shape} on {rows.shape}")
    q = rows
    for k in range(2, rep.n + 1):
        row, col = tableau.position_of(k)
        parts = [p for p in (sum(e < k for e in r) for r in tableau.rows) if p] + [0]
        for r, length in enumerate(parts):
            other = length - r
            if (r == 0 or parts[r - 1] > length) and other != col - row:
                # X_k = sum_{j<k} (j k), and turning Q^T gives Q rep((j k)).
                q = (sum(turn(rep, (j, k), q.T) for j in range(1, k)) - other * q) / (
                    col - row - other)
    return q


def block_columns(blocks: np.ndarray) -> np.ndarray:
    """B, the D x m d matrix of the blocks side by side, C-ordered: the one
    transposed copy of the m x d x D blocks, whose reshape to m d x D is B^T."""
    m, d, dim = blocks.shape
    return np.ascontiguousarray(blocks.reshape(m * d, dim).T)


def block_seeds(rep: GroupRep, shape: Partition) -> np.ndarray:
    """m orthonormal rows spanning the range of e_11, the projector onto the
    Gelfand-Tsetlin weight of shape's first tableau, of rank m from rep's one
    cached column walk, by its chain on m + 1 fixed probe rows (range finding
    with the rank known, Halko-Martinsson-Tropp, SIAM Rev. 2011).  A Gram-Schmidt
    pass over the image rows, by gemv, checks that rank (m residual norms above
    RANK_TOL, the last at or below it); one more chain and pass refine the seeds."""
    m = multiplicities(rep)[shape]
    first = enumerate_tableaux(shape)[0]
    # sin(k^2), k = 1, 2, ...: a fixed probe that needs no random generator.
    seeds = np.sin(np.arange(1.0, (m + 1) * rep.dim + 1) ** 2).reshape(m + 1, rep.dim)
    for _ in range(2 if m else 1):  # then on the m seeds, whose unit norms damp the rounding
        image, seeds = tableau_projector(rep, first, seeds), np.empty((m, rep.dim))
        for k, v in enumerate(image):
            for _ in range(2):  # twice, so that the seeds are orthonormal to rounding
                v = v - (seeds[:k] @ v) @ seeds[:k]
            norm = math.sqrt(norm_sq(v))
            if not (norm > RANK_TOL if k < m else norm <= RANK_TOL):  # NaN fails too
                raise NumericalConsistencyError(f"the {shape} chain's probe has residual {norm}"
                                                f" at row {k + 1}, not rank m = {m}")
            if k < m:
                seeds[k] = v / norm
    return seeds


def isotypic_block_basis(rep: GroupRep, shape: Partition) -> np.ndarray:
    """Orthonormal bases B_a of the irrep blocks inside the shape isotypic
    component of rep, aligned so that rep(g) B_a = B_a rho^shape(g), as the
    read-only, C-ordered m x d x D array of the B_a^T, a free reshape of B^T;
    side by side, they conjugate rep to I_m tensor rho^shape.  The seeds are
    carried along the Young-Yamanouchi basis by the seminormal rule: if T =
    sigma_i P with P before T, v_T = (rep(sigma_i) - 1/tau) v_P / sqrt(1 -
    1/tau^2), tau the axial distance of i in P.  Checked too: B^T B = I and
    each B_a intertwines the generators with rho^shape's."""
    if shape.n != rep.n:
        raise InvalidArgumentError(f"degree mismatch: partition of {shape.n}, rep of S_{rep.n}")
    m, d = multiplicities(rep)[shape], irrep_dimension(shape)
    require_bytes(BLOCK_ARRAYS * m * rep.dim * d * 8, f"the {m} blocks of {shape} at D = {rep.dim}")
    seeds = block_seeds(rep, shape)
    blocks = np.empty((m, d, rep.dim))
    blocks[:, 0] = seeds
    del seeds
    if not m:  # nothing to carry
        blocks.setflags(write=False)
        return blocks
    contents, index = tableau_contents(shape)
    for k, c in enumerate(map(tuple, contents[1:].tolist()), start=1):
        # The first i with i + 1 in a higher row, where its axial distance
        # exceeds 1: swapping them gives an earlier tableau, in which i has
        # axial distance -tau.
        i = next(i for i in range(1, rep.n) if c[i] - c[i - 1] > 1)
        tau = c[i - 1] - c[i]
        v = blocks[:, index[swap_contents(c, i)]]
        blocks[:, k] = (turn(rep, (i, i + 1), v.T) - v / tau) / math.sqrt(1.0 - 1.0 / tau**2)
    rows = blocks.reshape(m * d, rep.dim)
    residual = float(np.abs(rows @ rows.T - np.eye(len(rows))).max())  # B^T B - I
    for t in zip(range(1, rep.n), range(2, rep.n + 1)):
        gap = turn(rep, t, blocks.transpose(0, 2, 1))
        gap -= turn(irrep(shape), t, blocks).transpose(0, 2, 1)
        residual = max(residual, float(np.abs(gap).max()))
    if not residual <= EIGEN_ONE_TOL:  # NaN fails too
        raise NumericalConsistencyError(f"irrep blocks {residual} off orthonormal intertwiners")
    blocks.setflags(write=False)
    return blocks


def kronecker_coefficient(mu: Partition, nu: Partition, lam: Partition,
                          route: str = "char") -> Multiplicity:
    """Kronecker coefficient m_{mu nu lam}.

    route "char" uses the triple character sum; route "rank" counts the
    block_seeds of the lam component, checked against the character route's
    m; route "both" does both.
    """
    if not mu.n == nu.n == lam.n:
        raise InvalidArgumentError(f"partitions must share n: {mu}, {nu}, {lam}")
    if route not in ("char", "rank", "both"):
        raise InvalidArgumentError(f"unknown route {route!r}")
    sigma = tensor_rep(mu, nu)
    if route != "char":  # block_seeds raises unless it finds the character route's m seeds
        rank = len(block_seeds(sigma, lam))
        if route == "rank":
            return Multiplicity(value=rank, route="projector-rank")
    return Multiplicity(value=multiplicities(sigma)[lam], route="character-sum")


def _gram(columns: np.ndarray, rows=slice(None)) -> np.ndarray:
    """The rows of C C^T, for C = columns, one gemv per row, as by_columns
    forms its products, so that its bits do not depend on the BLAS thread count."""
    return (columns @ columns[rows, :, None])[..., 0]


def wfs_projector(rep: GroupRep, shape: Partition) -> Projector:
    """Isotypic projector (d/|G|) sum_g chi^shape(g)* rep(g): sum_a B_a B_a^T,
    the Gram of the checked irrep blocks of its range side by side."""
    blocks = isotypic_block_basis(rep, shape)  # then the projector beside them and their copy
    require_bytes(rep.dim**2 * 8 + 2 * blocks.nbytes, f"the projector onto {shape}")
    b = block_columns(blocks)
    matrix = _gram(b)
    matrix.setflags(write=False)
    return Projector(matrix=matrix, rank=b.shape[1])


def povm_ranks(rep: GroupRep) -> tuple[dict[Partition, int], float]:
    """Each label's rank m d_lambda and the POVM's completeness residual
    max|sum_lambda Xi_lambda - I|, labels in partition order, with no
    projector held: each label's Gram is added into the sum PANEL rows at
    a time by _gram, so the sum's bits are those of wfs_projector's matrices
    summed and do not depend on the BLAS threads."""
    widest = max(m * irrep_dimension(shape) for shape, m in multiplicities(rep).items())
    # The sum beside the widest label's blocks as the builder checks them, or
    # beside its blocks, their side-by-side copy and a panel of rows.
    require_bytes((rep.dim + max(BLOCK_ARRAYS * widest, 2 * widest + PANEL)) * rep.dim * 8,
                  f"the POVM's completeness at D = {rep.dim}")
    ranks, total = {}, np.zeros((rep.dim, rep.dim))
    for shape in enumerate_partitions(rep.n):
        b = block_columns(isotypic_block_basis(rep, shape))
        ranks[shape] = b.shape[1]
        for start in range(0, rep.dim, PANEL):
            panel = slice(start, start + PANEL)
            total[panel] += _gram(b, panel)
        del b
    total[np.diag_indices_from(total)] -= 1.0
    return ranks, float(np.abs(total, out=total).max())


def gpe_kraus(rep: GroupRep, shape: Partition) -> KrausElement:
    """Kraus element (1/sqrt|G|) sum_g (Pi_shape FT|g>) tensor rep(g) of the
    generalized phase estimation circuit.  Only shape's d^2 control rows
    are nonzero; row (i, j) is the matrix unit e_ij / sqrt(d), and
    e_ij = sum_a B_a[:, i] B_a[:, j]^T over the aligned irrep blocks B_a."""
    if shape.n != rep.n:
        raise InvalidArgumentError(f"degree mismatch: partition of {shape.n}, rep of S_{rep.n}")
    size = math.factorial(rep.n)
    d = irrep_dimension(shape)
    # The output and the d^2 units (D x D float64 blocks).
    require_bytes((size + d * d) * rep.dim**2 * 8, f"the Kraus element of {shape} at D = {rep.dim}")
    blocks = isotypic_block_basis(rep, shape)
    shapes = enumerate_partitions(rep.n)
    offset = sum(irrep_dimension(p) ** 2 for p in shapes[: shapes.index(shape)])
    out = np.zeros((size, rep.dim, rep.dim))
    units = np.einsum("aix,ajy->ijxy", blocks, blocks) / math.sqrt(d)
    out[offset : offset + d * d] = units.reshape(d * d, rep.dim, rep.dim)
    return KrausElement(matrix=out.reshape(size * rep.dim, rep.dim), shape_label=shape)


def by_columns(matrix: np.ndarray, x: np.ndarray) -> np.ndarray:
    """matrix @ x, C-ordered, for a real C-ordered p x q matrix and a complex
    q x k x, as one gemv per column of x.real and x.imag: a gemm that
    contracts over q gives bits that depend on the BLAS thread count, a
    gemv does not."""
    y = (matrix @ np.stack([x.real.T, x.imag.T])[..., None])[..., 0]
    out = np.empty(y.shape[:0:-1], dtype=complex)
    out.real, out.imag = y[0].T, y[1].T
    return out


def norm_sq(v: np.ndarray) -> float:
    """Squared norm as a NumPy sum: the BLAS dot behind np.linalg.norm
    splits its sum by thread count, so its last bits depend on
    OPENBLAS_NUM_THREADS.  A real v skips its zero imaginary part: x^2 + 0.0 = x^2."""
    return float(np.sum(v**2 if np.isrealobj(v) else v.real**2 + v.imag**2))


def seeded(seed: int) -> random.Random:
    """The standard library's generator for a nonnegative seed: Random(-s)
    would repeat Random(s)'s stream.  Every seeded command draws from it, so
    none of them imports numpy.random."""
    if seed < 0:
        raise InvalidArgumentError(f"seed must be nonnegative, got {seed}")
    return random.Random(seed)


def sample_wfs(rep: GroupRep, psi: np.ndarray,
               seed: int) -> tuple[Partition, np.ndarray, np.ndarray, float]:
    """Sample an irrep label by measuring rep on the first register of
    psi = vec X, X of shape D x k (k = 1 is a state of rep's own space):
    the label, its blocks, Z = B^T X and its probability p = ||Z||_F^2.
    No projector is built.  Deterministic given the seed: the label is
    Random(seed).choices over the probabilities, which bisects their running
    sum to the right, so a label of probability 0 is never drawn."""
    rng = seeded(seed)
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1 or psi.size % rep.dim:
        raise InvalidArgumentError(
            f"state has dimension {psi.shape}, not a multiple of rep's {rep.dim}")
    with np.errstate(over="ignore"):  # an overflowing norm is inf and fails
        if not abs(np.linalg.norm(psi) - 1.0) <= 1e-8:  # NaN fails too
            raise InvalidArgumentError("state must be a unit vector")
    x = psi.reshape(rep.dim, -1)
    dim, k = x.shape
    # The stacked rows of every label's blocks (at most D^2) beside the next
    # label's builder, as povm_ranks prices it; or twice while they stack,
    # beside by_columns' 4 D k floats; or one label's B, Z and 4 D k more.
    widest = max(m * irrep_dimension(shape) for shape, m in multiplicities(rep).items())
    require_bytes((dim + max(BLOCK_ARRAYS * widest, max(dim, 2 * k) + 4 * k)) * dim * 8,
                  f"the measurement of S_{rep.n} at D = {dim}")
    shapes = enumerate_partitions(rep.n)
    blocks = [isotypic_block_basis(rep, shape) for shape in shapes]
    z = by_columns(np.concatenate([b.reshape(-1, dim) for b in blocks]), x)  # every label's B^T X
    parts = np.split(z, np.cumsum([len(b) * b.shape[1] for b in blocks])[:-1])
    probs = np.array([norm_sq(y) for y in parts])
    total = probs.sum()
    if not abs(total - 1.0) <= 1e-6:
        raise NumericalConsistencyError(f"measurement probabilities sum to {total}")
    choice = rng.choices(range(len(shapes)), weights=probs.tolist())[0]
    return shapes[choice], blocks[choice], parts[choice], float(probs[choice])


def measure_wfs(rep: GroupRep, psi: np.ndarray, seed: int) -> tuple[Partition, np.ndarray]:
    """sample_wfs's label and post-state vec(B B^T X) / sqrt(p), formed for that label only."""
    label, blocks, z, p = sample_wfs(rep, psi, seed)
    columns = block_columns(blocks)
    del blocks
    post = by_columns(columns, z)
    post /= math.sqrt(p)
    return label, post.reshape(-1)
