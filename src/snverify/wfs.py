"""Weak Fourier sampling: isotypic projectors, the phase-estimation Kraus
characterization, seeded measurement, and the irrep sampling distribution
on the maximally entangled state.

The projectors come from the Young lattice, not from a group sum.  On the
projector Q_kappa onto the kappa-isotypic part under S_{k-1}, X_k has as
eigenvalues the contents of kappa's addable cells (Okounkov-Vershik,
Selecta Math. 1996).  So Q_(1) = I, Q_kappa' = sum_{kappa < kappa'}
L(X_k) Q_kappa with L the Lagrange polynomial picking the content of
kappa'/kappa, and Xi_lambda = Q_lambda at level n.  Along one tableau's
chain the factors give the projector onto its Gelfand-Tsetlin weight.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericalConsistencyError, require_bytes
from .kronecker import kronecker_multiplicities, multiplicity_character
from .symgroup import Partition, StandardTableau, enumerate_partitions, irrep_dimension
from .yyrep import GroupRep, jucys_murphy_product

RANK_TOL = 1e-6
# D x D arrays a lattice step holds beside two levels of projectors: one parent's
# children, _split's partial products and a product with X_k (tracemalloc, n <= 9).
LATTICE_SPARE = 5


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


def _addable(parts: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """Each shape with one cell more than parts, with that cell's content
    (column - row), top row first."""
    cells = []
    for r in range(len(parts) + 1):
        length = parts[r] if r < len(parts) else 0
        if r == 0 or parts[r - 1] > length:
            cells.append((parts[:r] + (length + 1,) + parts[r + 1 :], length - r))
    return cells


def _split(rep: GroupRep, y: np.ndarray, k: int, cells, wanted, contents) -> list:
    """(child, L(X_k) Y) for each wanted child among cells, L the Lagrange
    polynomial that is 1 at its content and 0 at the other contents; Y
    already carries (X_k - c) for the contents c not in cells.  Halving
    the cells shares products: a cells take about a log2 a, not a (a - 1)."""
    if len(cells) == 1:
        (child, c), = cells
        return [(child, y / math.prod(c - o for o in contents if o != c))]
    half = len(cells) // 2
    out = []
    for part, rest in ((cells[:half], cells[half:]), (cells[half:], cells[:half])):
        if any(child in wanted for child, _ in part):
            z = y
            for _, other in rest:
                # z is symmetric and commutes with X_k: this is (X_k - other) z.
                z = jucys_murphy_product(rep, z, k) - other * z
            out += _split(rep, z, k, part, wanted, contents)
    return out


def _lattice(rep: GroupRep, plan: list) -> dict[tuple[int, ...], np.ndarray]:
    """Q_kappa for the shapes kappa of plan's last level, where plan lists
    the shapes kept at each level k = 1..n; each Q is summed over its kept
    parents."""
    levels = max((len(a) + len(b) for a, b in zip(plan, plan[1:])), default=1)
    require_bytes((levels + LATTICE_SPARE) * rep.dim**2 * 8,
                  f"the Young-lattice projectors of S_{rep.n} at D = {rep.dim}")
    level = {(1,): np.eye(rep.dim)}
    for k, kept in enumerate(plan[1:], start=2):
        kept, nxt = set(kept), {}
        for kappa, q in level.items():
            cells = _addable(kappa)
            for child, y in _split(rep, q, k, cells, kept, [c for _, c in cells]):
                nxt[child] = nxt[child] + y if child in nxt else y
        level = nxt
    return level


def _plan_inside(n: int, shapes) -> list:
    """The plan of the shapes contained in one of shapes, partitions of n."""
    plan = [[(1,)]]
    for _ in range(2, n + 1):
        children = dict.fromkeys(c for kappa in plan[-1] for c, _ in _addable(kappa))
        plan.append([c for c in children if any(
            len(c) <= len(s.parts) and all(map(operator.le, c, s.parts)) for s in shapes)])
    return plan


def tableau_projector(rep: GroupRep, tableau: StandardTableau) -> np.ndarray:
    """Projector onto the Gelfand-Tsetlin weight of a standard tableau, of
    rank the multiplicity of its shape: the lattice along its chain of
    shapes, the product of one Lagrange factor per level."""
    if tableau.n != rep.n:
        raise InvalidArgumentError(f"degree mismatch: tableau of {tableau.n}, rep of S_{rep.n}")
    chain = [[tuple(p for p in (sum(e <= k for e in row) for row in tableau.rows) if p)]
             for k in range(1, rep.n + 1)]
    return _lattice(rep, chain)[tableau.shape.parts]


def _checked(rep: GroupRep, shape: Partition, matrix: np.ndarray) -> Projector:
    """The projector, once its trace is the exact m d of the character route:
    on a tensor rep from the pair's one cached column walk, else entry by entry."""
    if rep.kind == "tensor":
        m = kronecker_multiplicities(*rep.labels)[shape]
    else:
        m = multiplicity_character(rep, shape).value
    proj = Projector.from_matrix(matrix)
    if proj.rank != m * irrep_dimension(shape):
        raise NumericalConsistencyError(f"the {shape} projector has trace {np.trace(matrix)}, "
                                        f"not m d = {m * irrep_dimension(shape)}")
    return proj


def wfs_projector(rep: GroupRep, shape: Partition) -> Projector:
    """Isotypic projector (d/|G|) sum_g chi^shape(g)* rep(g), built over
    the shapes of the Young lattice that shape contains."""
    if shape.n != rep.n:
        raise InvalidArgumentError(f"degree mismatch: partition of {shape.n}, rep of S_{rep.n}")
    return _checked(rep, shape, _lattice(rep, _plan_inside(rep.n, [shape]))[shape.parts])


def wfs_povm(rep: GroupRep) -> list[tuple[Partition, Projector]]:
    """One projector per partition of n, in canonical partition order, from
    one pass over the Young lattice."""
    shapes = enumerate_partitions(rep.n)
    level = _lattice(rep, _plan_inside(rep.n, shapes))
    return [(shape, _checked(rep, shape, level[shape.parts])) for shape in shapes]


def gpe_kraus(rep: GroupRep, shape: Partition) -> KrausElement:
    """Kraus element (1/sqrt|G|) sum_g (Pi_shape FT|g>) tensor rep(g) of the
    generalized phase estimation circuit.  Only shape's d^2 control rows
    are nonzero; row (i, j) is the matrix unit e_ij / sqrt(d), and
    e_ij = sum_a B_a[:, i] B_a[:, j]^T over the aligned irrep blocks B_a."""
    from .entangled import isotypic_block_basis  # avoid import cycle

    if shape.n != rep.n:
        raise InvalidArgumentError(f"degree mismatch: partition of {shape.n}, rep of S_{rep.n}")
    size = math.factorial(rep.n)
    d = irrep_dimension(shape)
    # The output and the d^2 units (D x D float64 blocks).
    require_bytes((size + d * d) * rep.dim**2 * 8, f"the Kraus element of {shape} at D = {rep.dim}")
    blocks = np.array(isotypic_block_basis(rep, shape)).reshape(-1, rep.dim, d)
    shapes = enumerate_partitions(rep.n)
    offset = sum(irrep_dimension(p) ** 2 for p in shapes[: shapes.index(shape)])
    out = np.zeros((size, rep.dim, rep.dim))
    units = np.einsum("axi,ayj->ijxy", blocks, blocks) / math.sqrt(d)
    out[offset : offset + d * d] = units.reshape(d * d, rep.dim, rep.dim)
    return KrausElement(matrix=out.reshape(size * rep.dim, rep.dim), shape_label=shape)


def by_columns(matrix: np.ndarray, x: np.ndarray) -> np.ndarray:
    """matrix @ x for a real C-ordered D x D matrix and a complex D x k x, as one
    gemv per column of x.real and x.imag: a gemm that contracts over D gives
    bits that depend on the BLAS thread count, a gemv does not."""
    cols = np.ascontiguousarray(np.stack([x.real, x.imag]).transpose(0, 2, 1))
    y = (matrix @ cols[..., None])[..., 0]
    return (y[0] + 1j * y[1]).T


def measure_wfs(
    rep: GroupRep, psi: np.ndarray, seed: int
) -> tuple[Partition, np.ndarray]:
    """Sample an irrep label by measuring rep on the first register of
    psi = vec X, X of shape D x k (k = 1 is a state of rep's own space),
    and return the normalized post-measurement state.  The label has
    probability ||Xi X||_F^2 and the post-state is vec(Xi X) normalized;
    no lifted Xi tensor I is built.  Deterministic given the seed."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1 or psi.size % rep.dim:
        raise InvalidArgumentError(
            f"state has dimension {psi.shape}, not a multiple of rep's {rep.dim}")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-8:
        raise InvalidArgumentError("state must be a unit vector")
    x = psi.reshape(rep.dim, -1)
    povm = wfs_povm(rep)
    images = [by_columns(p.matrix, x) for _, p in povm]
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
    weights = {shape: irrep_dimension(shape) * m
               for shape, m in kronecker_multiplicities(mu, nu).items()}
    d_mu, d_nu = irrep_dimension(mu), irrep_dimension(nu)
    total = sum(weights.values())
    if total != d_mu * d_nu:
        raise NumericalConsistencyError(
            f"lightning weights sum to {total}, not d_mu d_nu = {d_mu * d_nu}"
        )
    return {shape: w / (d_mu * d_nu) for shape, w in weights.items()}
