"""Oracles shared by several test files."""

import math
import os
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from snverify import verifier
from snverify.characters import irrep_character
from snverify.entangled import vec
from snverify.errors import InvalidArgumentError
from snverify.wfs import block_columns, isotypic_block_basis, norm_sq
from snverify.symgroup import (
    Permutation,
    StandardTableau,
    conjugacy_class_of,
    enumerate_group,
    enumerate_partitions,
    enumerate_tableaux,
    group_index,
    irrep_dimension,
)
from snverify.yyrep import GroupRep, irrep, rep_evaluate, rep_stack, tensor_rep

# pyproject's pythonpath finds src here; the tests that spawn
# `python -m snverify.cli` find it through PYTHONPATH.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def _insertion_word(g) -> list[int]:
    """Indices i_1..i_k with g = sigma_{i_1} o ... o sigma_{i_k}, placing
    n, n-1, ... in turn: a second word beside symgroup's first-descent
    sort, which it generally differs from, so that tests can check that
    evaluation does not depend on the word."""
    word = list(g.images)
    swaps = []
    for target in range(len(word), 1, -1):
        for j in range(word.index(target), target - 1):
            word[j], word[j + 1] = word[j + 1], word[j]
            swaps.append(j + 1)
    return swaps[::-1]


# Session scope: hypothesis tests take it too.
@pytest.fixture(scope="session")
def insertion_word():
    return _insertion_word


def _tableau_swap(t, i):
    """Tableau t with entries i and i+1 exchanged, or None if the result
    is not standard."""
    rows = [list(row) for row in t.rows]
    (r1, c1), (r2, c2) = t.position_of(i), t.position_of(i + 1)
    rows[r1][c1], rows[r2][c2] = i + 1, i
    try:
        return StandardTableau(tuple(tuple(row) for row in rows))
    except InvalidArgumentError:
        return None


def _axial_distance(t, i) -> int:
    """Signed content difference content(i+1) - content(i), where
    content(row r, col c) = c - r (0-indexed), from the entries' positions."""
    r1, c1 = t.position_of(i)
    r2, c2 = t.position_of(i + 1)
    return (c2 - r2) - (c1 - r1)


@pytest.fixture(scope="session")
def tableau_swap():
    return _tableau_swap


@pytest.fixture(scope="session")
def axial_distance():
    return _axial_distance


def _yy_matrix(shape, i) -> np.ndarray:
    """Young-Yamanouchi matrix of sigma_i built tableau by tableau: 1/tau
    on the diagonal and sqrt(1 - 1/tau^2) at the swapped tableau, found by
    validating the swap.  The oracle for yyrep's content-vector builder."""
    tableaux = enumerate_tableaux(shape)
    index = {t.rows: k for k, t in enumerate(tableaux)}
    mat = np.zeros((len(tableaux), len(tableaux)))
    for k, t in enumerate(tableaux):
        tau = _axial_distance(t, i)
        mat[k, k] = 1.0 / tau
        swapped = _tableau_swap(t, i)
        if swapped is not None:
            mat[index[swapped.rows], k] = math.sqrt(1.0 - 1.0 / tau**2)
    return mat


@pytest.fixture(scope="session")
def yy_oracle():
    return _yy_matrix


def _stack_by_element(rep) -> np.ndarray:
    """rep(g) for every g of enumerate_group(rep.n), one product per element
    in group order: rep(g) = rep(g') rep(sigma_{j+1}) for g' = g o sigma_{j+1},
    j the first descent of g's one-line word, so that g' comes earlier.  The
    oracle for rep_stack's batches, which form the same products."""
    group = enumerate_group(rep.n)
    stack = np.empty((len(group), rep.dim, rep.dim))
    stack[0] = np.eye(rep.dim)
    for k, g in enumerate(group[1:], start=1):
        word = list(g.images)
        j = next(j for j in range(rep.n - 1) if word[j] > word[j + 1])
        word[j], word[j + 1] = word[j + 1], word[j]
        parent = group_index(Permutation(tuple(word)))
        np.matmul(stack[parent], rep.generator_images[j], out=stack[k])
    return stack


def _dense_rep(rep):
    """rep with dense generator images.  A tensor product holds none, so
    its oracle is a "kron-oracle" rep with the np.kron images of its
    factors, which rep_evaluate, rep_stack and the dense branch of turn
    read like any other; every other kind is returned as it is."""
    if rep.kind != "tensor":
        return rep
    a, b = (irrep(shape).generator_images for shape in rep.labels)
    return GroupRep(n=rep.n, dim=rep.dim, kind="kron-oracle", labels=rep.labels,
                    generator_images=tuple(np.kron(x, y) for x, y in zip(a, b)))


@pytest.fixture(scope="session")
def dense_rep():
    return _dense_rep


def _commutant(rep) -> np.ndarray:
    """W = (1/|G|) sum_g rep(g) tensor rep(g)*, on C^{D^2}, summed one element
    at a time through rep_evaluate: the dense D^2 x D^2 projection onto the
    commutant, for small D only."""
    group, rep = enumerate_group(rep.n), _dense_rep(rep)
    total = sum(np.kron(rep_evaluate(rep, g), rep_evaluate(rep, g).conj()) for g in group)
    return total / len(group)


@pytest.fixture
def commutant_oracle():
    return _commutant


def _span_distance(cols: np.ndarray, psi: np.ndarray) -> float:
    """||psi - C C^H psi|| for orthonormal columns C: the distance from psi
    to their span, as a dense residual."""
    return float(np.linalg.norm(psi - cols @ (cols.conj().T @ psi)))


@pytest.fixture
def span_distance():
    return _span_distance


def _accepting_columns(mu, nu, lam) -> np.ndarray:
    """The verifier's accepting eigenspace for rho^mu x rho^nu and lam as
    dense columns: the m^2 orthonormal vec(B_a B_b^T)/sqrt(d_lam) over the
    irrep blocks B_a, a D^2 x m^2 array, for small D only.  The oracle for
    the closed form that AcceptanceOperator holds."""
    sigma = tensor_rep(mu, nu)
    blocks = isotypic_block_basis(sigma, lam)
    cols = [vec(a.T @ b) / math.sqrt(irrep_dimension(lam)) for a in blocks for b in blocks]
    return np.column_stack(cols) if cols else np.zeros((sigma.dim**2, 0))


@pytest.fixture
def accepting_oracle():
    return _accepting_columns


def _product_target_columns(m: int, d1: int) -> np.ndarray:
    """The m^2 orthonormal columns vec(e_ab tensor I_d1)/sqrt(d1) that span
    vec(A tensor I_d1) over A in C^{m x m}, an (m d1)^2 x m^2 array: the
    oracle for certify_lemma_bound's closed-form distance, for small m d1."""
    units = np.eye(m * m).reshape(m * m, m, m)  # units[a * m + b] = e_ab
    return np.column_stack([vec(np.kron(unit, np.eye(d1))) / math.sqrt(d1) for unit in units])


@pytest.fixture
def product_target_oracle():
    return _product_target_columns


def _haar_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / math.sqrt(norm_sq(v))


@pytest.fixture(scope="session")
def haar_state():
    return _haar_state


def _trial_state(dim: int, center, perturbation, seed: int) -> np.ndarray:
    """A Haar-random state on C^dim, or with perturbation set the normalized
    perturbation of center at that scale, determined by the seed: the dense
    trial state certification drew before it drew block coordinates and then
    level weights, kept as the oracle for their distribution."""
    rng = np.random.default_rng(seed)
    if perturbation is None:
        return _haar_state(dim, rng)
    raw = center + perturbation * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    return raw / math.sqrt(norm_sq(raw))


def _identity_split(x: np.ndarray, d1: int) -> tuple[np.ndarray, float]:
    """t = T/d1 and ||X - t tensor I_d1||_F for T_ab = tr X_ab over X's d1 x d1
    blocks, summed from that residual formed explicitly."""
    m = len(x) // d1
    residual = x.reshape(m, d1, m, d1).copy()  # residual[a, :, b] = X_ab
    t = np.trace(residual, axis1=1, axis2=3) / d1
    diagonals = np.einsum("aibi->abi", residual)  # a writable view: X_ab's diagonal at [a, b]
    diagonals -= t[:, :, None]
    return t, math.sqrt(norm_sq(residual))


def _dense_trials(kind: str, dense, perturbation, seeds) -> np.ndarray:
    """Per seeded dense trial state, the statistics the certification reports
    read, by the route that formed the state: for a corollary (dense = its
    acceptance operator) the corollary's acceptance and distance and the
    theorem's, from the operator's split; for a lemma (dense = (m, d1)) the
    acceptance and distance, from the identity split.  The oracle against
    which the level weights' draw is tested in distribution."""
    rows = []
    if kind == "corollary":
        m, d_lam, d = dense.blocks.shape
        center = vec(dense._split(np.eye(d))[0]) / math.sqrt(m * d_lam)
        for seed in seeds:
            x = _trial_state(d * d, center, perturbation, seed).reshape(d, d)
            projected, t, inner, distance = dense._split(x)
            p = min(norm_sq(projected), 1.0)
            a = verifier.internal_acceptance(t, d_lam, p)
            rows.append((p * a, distance, a, math.sqrt(inner / p)))
    else:
        m, d1 = dense
        d = m * d1
        center = vec(np.eye(d)) / math.sqrt(d)
        for seed in seeds:
            x = _trial_state(d * d, center, perturbation, seed).reshape(d, d)
            t, distance = _identity_split(x, d1)
            rows.append((verifier.internal_acceptance(t, d1), distance))
    return np.array(rows)


@pytest.fixture(scope="session")
def dense_trials():
    return _dense_trials


def _coordinate_trials(blocks: np.ndarray, perturbation, seeds) -> np.ndarray:
    """Per seed, the corollary's four statistics, as _dense_trials orders
    them, from the draw that certification made before it drew level
    weights: the m d_lambda x D coordinates Z = B^T X, iid N + iN, and the
    weight off B's range, a chi-square with 2 D (D - m d_lambda) degrees of
    freedom, over their total; a perturbation scales both and shifts Z by
    B^T/sqrt(m d_lambda).  Z is split by K B^T formed explicitly.  The
    second oracle for the weights' distribution, with no D^2 state."""
    m, d_lam, d = blocks.shape
    center = blocks.reshape(m * d_lam, d) / math.sqrt(m * d_lam)
    df = 2 * d * (d - m * d_lam)
    rows = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        parts = rng.standard_normal((2, m * d_lam, d))
        off = rng.chisquare(df) if df else 0.0
        if perturbation is not None:
            parts *= perturbation
            parts[0] += center
            off *= perturbation * perturbation
        total = norm_sq(parts) + off
        z = (parts[0] + 1j * parts[1]).reshape(blocks.shape) / math.sqrt(total)
        t = verifier.block_traces(blocks, z)
        inner = norm_sq(z - np.einsum("ab,biy->aiy", t, blocks))
        p = min(norm_sq(z), 1.0)
        a = verifier.internal_acceptance(t, d_lam, p)
        rows.append((p * a, math.sqrt(off / total + inner), a, math.sqrt(inner / p)))
    return np.array(rows)


@pytest.fixture(scope="session")
def coordinate_trials():
    return _coordinate_trials


@pytest.fixture
def drawn(monkeypatch):
    """The level weights (w1, w_half, w0) certification trials draw,
    recorded in trial order."""
    record, draw = [], verifier._trial_weights
    monkeypatch.setattr(verifier, "_trial_weights",
                        lambda *args: record.append(draw(*args)) or record[-1])
    return record


def _gaussian(shape, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _lemma_blocks(m: int, d1: int) -> np.ndarray:
    """The m irrep blocks of I_m x rho, B_a = e_a x I_d1, as the builder lays
    them out (m x d1 x m d1): the lemma's product target is their level 1."""
    blocks = np.zeros((m, d1, m * d1))
    for a in range(m):
        blocks[a, :, a * d1:(a + 1) * d1] = np.eye(d1)
    return blocks


def _level_state(operator: np.ndarray, weights, seed: int) -> np.ndarray:
    """A unit state psi = vec X whose weights on the acceptance levels 1, 1/2
    and 0 are the given three, each part a seeded Gaussian direction of its
    level.  operator is either a dense acceptance matrix, for D <= 6, whose
    eigenspaces give the levels, or the m x d_lambda x D irrep blocks, up
    to D = 490: level 1 is sum_ab C_ab B_a B_b^T, level 1/2 is B Z' with
    Z''s part K B^T removed, K = (T/d_lambda) x I, and level 0 a Gaussian
    projected off B's range."""
    rng = np.random.default_rng(seed)
    if operator.ndim == 2:
        values, vectors = np.linalg.eigh(operator)
        parts = []
        for level in (1.0, 0.5, 0.0):
            space = vectors[:, np.abs(values - level) < 1e-8]
            parts.append(space @ _gaussian(space.shape[1], rng))
    else:
        blocks = operator
        m, d_lam, d = blocks.shape
        z = _gaussian(blocks.shape, rng)
        z -= np.einsum("ab,biy->aiy", verifier.block_traces(blocks, z), blocks)
        g, b = _gaussian((d, d), rng), block_columns(blocks)
        parts = [vec(np.einsum("ab,aix,biy->xy", _gaussian((m, m), rng), blocks, blocks)),
                 vec(b @ z.reshape(m * d_lam, d)), vec(g - b @ (b.T @ g))]
    state = 0
    for part, weight in zip(parts, weights, strict=True):
        if weight:
            state = state + part * math.sqrt(weight / norm_sq(part))
    return state


@pytest.fixture(scope="session")
def level_state():
    return _level_state


@pytest.fixture(scope="session")
def lemma_blocks():
    return _lemma_blocks


def _stack_average(rep, x) -> np.ndarray:
    """(1/|G|) sum_g rep(g) X rep(g)^T over rep's whole stack: the group
    average element by element, against which channel_E's coset tower is
    checked."""
    stack = rep_stack(_dense_rep(rep))
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
def _border_strip_sum(beta: tuple[int, ...], parts: tuple[int, ...]) -> int:
    """chi^lambda at the cycle parts, where beta holds the beta-numbers of
    lambda in ascending order (its abacus, no bead at 0).

    Removing a border strip of length r = parts[0] moves one bead from b
    to an empty slot b - r, with sign (-1)^(beads strictly between); the
    smaller partition then takes the remaining parts.
    """
    if not parts:
        return 1
    r, rest = parts[0], parts[1:]
    total = 0
    for pos, b in enumerate(beta):
        slot = b - r
        if slot < 0 or slot in beta:
            continue
        between = sum(1 for c in beta[:pos] if c > slot)
        moved = sorted(beta[:pos] + (slot,) + beta[pos + 1 :])
        # Beads packed at 0, 1, ..., j - 1 are empty rows: drop them.
        j = 0
        while j < len(moved) and moved[j] == j:
            j += 1
        value = _border_strip_sum(tuple(c - j for c in moved[j:]), rest)
        total += -value if between % 2 else value
    return total


def _backward_character(shape, cycle_type) -> int:
    """chi^shape at cycle_type by the backward Murnaghan-Nakayama recursion
    on beta-numbers, memoised per subproblem: an oracle for the forward
    walks of characters, independent of their bit masks."""
    k = len(shape.parts)
    beta = tuple(part + k - 1 - i for i, part in enumerate(shape.parts))
    return _border_strip_sum(beta[::-1], cycle_type.parts)


@pytest.fixture
def backward_character():
    return _backward_character


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
        base = irrep(rep.labels[0])
        pair = (np.eye(rep.dim // base.dim), _group_sum(base, weights))
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
