"""Young-Yamanouchi irrep matrices, tensor/regular representations, and
the dense group Fourier transform for S_n.

Every representation here is real orthogonal, so its data is float64.
A GroupRep holds generator images for the adjacent transpositions
sigma_1..sigma_{n-1}; rep_evaluate multiplies them along a decomposition
of one element, also where S_n is too large to enumerate.  A tensor
product holds only its labels.  turn(rep, t, Y) = Y^T rep(t), the one
code that applies a transposition image, contracts Y with one image per
factor: a tensor product's two factors' or any other kind's own, as
transposition_images caches them.  It serves wfs's irrep blocks, whose
chain applies the Jucys-Murphy elements X_k = sum_{j<k} (j k), and the
verifier's group sums, which only the self-test and the tests read.
rep_stack evaluates a representation on the whole group, as a cached
|G| x D x D array in the order of symgroup.enumerate_group, for the
Fourier transform and the self-test's orthogonality suites, both on
irreps: one product per inversion count and generator, over a plan
computed from the one-line words as arrays.  The Young-Yamanouchi images
are read from each tableau's content vector, with no tableau built.

Characters and multiplicities need no matrix: the characters module reads
a GroupRep only through its n, kind, labels and dim.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InvalidArgumentError, require_bytes
from .symgroup import (
    Partition,
    Permutation,
    adjacent_transposition_decomposition,
    compose,
    enumerate_group,
    enumerate_partitions,
    enumerate_tableaux,
    group_index,
    inverse,
    irrep_dimension,
)

# Peak bytes of the stack plan of S_n while it is built, by tracemalloc at
# n = 2..9: 56-66 B per element from n = 7 on, its int64 columns and the
# batches they are split into, and at most 16 KB of fixed cost besides.
PLAN_BYTES, PLAN_FIXED_BYTES = 72, 1 << 14


@dataclass(eq=False)
class GroupRep:
    """A representation of S_n given by its generator images.

    kind is one of "irrep", "tensor", "left-regular", "right-regular",
    "identity-times-irrep"; labels carries the partition labels where
    applicable.  "identity-times-irrep" is I_m x irrep(labels[0]), with
    m = dim // d of that irrep.  A "tensor" has no transposition images of
    its own; _factors holds the images turn applies, one array per factor."""

    n: int
    dim: int
    kind: str
    generator_images: tuple[np.ndarray, ...]
    labels: tuple[Partition, ...] = ()
    _stack: "np.ndarray | None" = field(default=None, repr=False)
    _transpositions: "np.ndarray | None" = field(default=None, repr=False)
    _factors: "tuple | None" = field(default=None, repr=False)

    def __post_init__(self):
        for img in self.generator_images:
            img.setflags(write=False)


def stack_bytes(rep: GroupRep) -> int:
    """Size of rep's |G| x D x D float64 stack."""
    return math.factorial(rep.n) * rep.dim**2 * 8


@lru_cache(maxsize=None)
def tableau_contents(shape: Partition) -> tuple[np.ndarray, dict[tuple[int, ...], int]]:
    """The content vectors of shape's standard tableaux, in their canonical
    order, as a read-only d x n int array: c[k, v - 1] = col - row
    (0-indexed) of the entry v in tableau k.  A content vector determines
    its tableau, so the dict maps each vector, as a tuple, to its k.  For
    1 <= i < n, tau = c[i] - c[i - 1] is the axial distance of i; swapping
    i and i + 1 gives a standard tableau iff |tau| > 1, and then its vector
    is c with those two entries exchanged."""
    vectors = []
    for t in enumerate_tableaux(shape):  # priced there, at more than the table
        c = [0] * shape.n
        for r, row in enumerate(t.rows):
            for col, v in enumerate(row):
                c[v - 1] = col - r
        vectors.append(tuple(c))
    contents = np.array(vectors, dtype=np.intp)
    contents.setflags(write=False)
    return contents, {c: k for k, c in enumerate(vectors)}


def swap_contents(c: tuple[int, ...], i: int) -> tuple[int, ...]:
    """The content vector c with the entries of i and i + 1 exchanged."""
    return c[: i - 1] + (c[i], c[i - 1]) + c[i + 1 :]


def yy_generator_matrix(shape: Partition, i: int) -> np.ndarray:
    """Orthogonal Young-Yamanouchi matrix for the adjacent transposition
    sigma_i in the irrep labeled by shape.

    In the canonical tableau order, the column for tableau k has 1/tau at k
    and sqrt(1 - 1/tau^2) at the tableau obtained by swapping i and i+1,
    when that swap is standard; tau is the axial distance of i in k, read
    from tableau_contents.
    """
    if not 1 <= i <= shape.n - 1:
        raise InvalidArgumentError(f"generator index {i} out of range for S_{shape.n}")
    contents, index = tableau_contents(shape)
    tau = contents[:, i] - contents[:, i - 1]
    cols = np.arange(len(tau))
    mat = np.zeros((len(tau), len(tau)))
    mat[cols, cols] = 1.0 / tau
    cols = cols[np.abs(tau) > 1]
    rows = [index[swap_contents(tuple(c), i)] for c in contents[cols].tolist()]
    mat[rows, cols] = np.sqrt(1.0 - 1.0 / tau[cols] ** 2)
    return mat


@lru_cache(maxsize=None)
def irrep(shape: Partition) -> GroupRep:
    """The Young-Yamanouchi irrep labeled by a partition."""
    n = shape.n
    # Generator images are priced as n - 1 images and one temporary.
    require_bytes(n * irrep_dimension(shape) ** 2 * 8, f"the generator images of {shape}")
    images = tuple(yy_generator_matrix(shape, i) for i in range(1, n))
    return GroupRep(n=n, dim=irrep_dimension(shape), kind="irrep",
                    generator_images=images, labels=(shape,))


def tensor_rep(mu: Partition, nu: Partition) -> GroupRep:
    """rho^mu tensor rho^nu, held as its two labels; turn applies it."""
    if mu.n != nu.n:
        raise InvalidArgumentError(f"degree mismatch: {mu} vs {nu}")
    return GroupRep(n=mu.n, dim=irrep_dimension(mu) * irrep_dimension(nu), kind="tensor",
                    generator_images=(), labels=(mu, nu))


def identity_times_irrep(m: int, shape: Partition) -> GroupRep:
    """I_m tensor rho^shape: the block-repeated irrep used by the internal
    state test characterization."""
    if m < 1:
        raise InvalidArgumentError(f"multiplicity must be positive, got {m}")
    base = irrep(shape)
    require_bytes(shape.n * (m * base.dim) ** 2 * 8, f"the generator images of I_{m} x {shape}")
    images = tuple(np.kron(np.eye(m), img) for img in base.generator_images)
    return GroupRep(n=shape.n, dim=m * base.dim, kind="identity-times-irrep",
                    generator_images=images, labels=(shape,))


def regular_representations(n: int) -> tuple[GroupRep, GroupRep]:
    """Left- and right-regular representations on C^{|G|}.

    rho_L(h)|g> = |hg>.  The right action is implemented as
    rho_R(h)|g> = |g h^{-1}> so that both are homomorphisms and commute.
    """
    group = enumerate_group(n)
    size = len(group)
    require_bytes(2 * (n - 1) * size * size * 8, f"the regular representations of S_{n}")

    def perm_matrix(target_index) -> np.ndarray:
        mat = np.zeros((size, size))
        for col, g in enumerate(group):
            mat[target_index(g), col] = 1.0
        return mat

    left_images = []
    right_images = []
    for i in range(1, n):
        s = Permutation.transposition(n, i)
        left_images.append(perm_matrix(lambda g, s=s: group_index(compose(s, g))))
        right_images.append(perm_matrix(lambda g, s=s: group_index(compose(g, inverse(s)))))
    left = GroupRep(n=n, dim=size, kind="left-regular",
                    generator_images=tuple(left_images))
    right = GroupRep(n=n, dim=size, kind="right-regular",
                     generator_images=tuple(right_images))
    return left, right


def rep_evaluate(rep: GroupRep, g: Permutation) -> np.ndarray:
    """Matrix of g, as the product of generator images along an
    adjacent-transposition decomposition."""
    if g.n != rep.n:
        raise InvalidArgumentError(f"degree mismatch: permutation of S_{g.n}, rep of S_{rep.n}")
    images, mat = _images(rep), np.eye(rep.dim)
    for i in adjacent_transposition_decomposition(g):
        mat = mat @ images[i - 1]
    return mat


def _images(rep: GroupRep) -> tuple[np.ndarray, ...]:
    if rep.kind == "tensor":  # it has no images to multiply
        raise InvalidArgumentError(f"{rep.labels[0]} x {rep.labels[1]} is applied by turn only")
    return rep.generator_images


@lru_cache(maxsize=None)
def _stack_plan(n: int) -> tuple[tuple[np.ndarray, np.ndarray, int], ...]:
    """Read-only batches (rows, parents, j) that cover the elements g != e of
    enumerate_group(n), one batch per inversion count of g and first descent
    j of g's one-line word, in increasing inversion count.  rows holds the
    batch's indices and parents those of g' = g o sigma_{j+1}: swapping the
    descent removes one inversion, so every parent lies in an earlier batch
    or is e.  The words come from itertools.permutations, in the group's
    lexicographic order, and an index is a word's Lehmer code."""
    size = math.factorial(n)
    if size == 1:  # e alone
        return ()
    require_bytes(PLAN_BYTES * size + PLAN_FIXED_BYTES, f"the stack plan of S_{n}")
    words = np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(n))),
                        dtype=np.int8, count=size * n).reshape(size, n)

    def lehmer(weights):  # each word's Lehmer code, its digits weighted
        return sum((words[:, k + 1 :] < words[:, k, None]).sum(axis=1) * weight
                   for k, weight in enumerate(weights))

    j = np.argmax(words[:, :-1] > words[:, 1:], axis=1)  # 0 at e, which no batch holds
    inversions = lehmer([1] * (n - 1))
    every = np.arange(size)
    words[every, j], words[every, j + 1] = words[every, j + 1], words[every, j]
    parents = lehmer([math.factorial(n - 1 - k) for k in range(n - 1)])
    del words, every
    key = inversions * n + j
    rows = np.argsort(key, kind="stable")[1:]  # e, alone with no inversion, first
    parents = parents[rows]
    rows.setflags(write=False)
    parents.setflags(write=False)
    cuts = np.flatnonzero(np.diff(key[rows])) + 1
    gens = j[rows[np.r_[0, cuts]]].tolist()
    return tuple(zip(np.split(rows, cuts), np.split(parents, cuts), gens))


def rep_stack(rep: GroupRep) -> np.ndarray:
    """rep(g) for every g of enumerate_group(rep.n), as a read-only
    |G| x D x D array built once per representation, one product per batch
    of _stack_plan: rep(g) = rep(g o sigma_{j+1}) rep(sigma_{j+1}) for all
    the batch's g at once, their parents' images stacked as rows."""
    if rep._stack is None:
        images, dim = _images(rep), rep.dim
        require_bytes(stack_bytes(rep), f"the stack of S_{rep.n} at D = {dim}")
        plan = _stack_plan(rep.n)
        # And a batch's parents and product beside it.
        largest = max((len(rows) for rows, _, _ in plan), default=0)
        require_bytes(stack_bytes(rep) + 2 * largest * dim * dim * 8,
                      f"the stack of S_{rep.n} at D = {dim}")
        stack = np.empty((math.factorial(rep.n), dim, dim))
        stack[0] = np.eye(dim)
        for rows, parents, j in plan:
            stack[rows] = (stack[parents].reshape(-1, dim) @ images[j]).reshape(-1, dim, dim)
        stack.setflags(write=False)
        rep._stack = stack
    return rep._stack


def transposition_images(rep: GroupRep) -> np.ndarray:
    """rep((j k)) for 1 <= j < k <= n, as a read-only n(n-1)/2 x D x D
    array built once per representation: (j k) at (k-1)(k-2)/2 + j - 1,
    so the images of level k are contiguous.  (k-1 k) is the generator
    sigma_{k-1} and (j k) = sigma_j (j+1 k) sigma_j."""
    if rep._transpositions is None:
        gens, count = _images(rep), rep.n * (rep.n - 1) // 2
        # And the two products that conjugate one of them.
        require_bytes((count + 2) * rep.dim**2 * 8,
                      f"the {count} transposition images of S_{rep.n} at D = {rep.dim}")
        images = np.empty((count, rep.dim, rep.dim))
        for k in range(2, rep.n + 1):
            start = (k - 1) * (k - 2) // 2
            images[start + k - 2] = gens[k - 2]
            for j in range(k - 2, 0, -1):
                images[start + j - 1] = gens[j - 1] @ images[start + j] @ gens[j - 1]
        images.setflags(write=False)
        rep._transpositions = images
    return rep._transpositions


def turn(rep: GroupRep, t: tuple[int, int], y: np.ndarray) -> np.ndarray:
    """Y^T rep(t), (..., C, D), for t = (j k), j < k, and a (..., D, C) Y.
    rep(t) is symmetric, so turning twice conjugates.  It is A x B on rho^mu
    x rho^nu, and one product per factor image contracts the leading axis
    of Y's index, turning (mu, nu, C) into (nu, C, mu) and then (C, mu, nu):
    the large dimension is the rows of the left operand and the others are
    the factors', a shape whose bits do not depend on the BLAS threads."""
    index = (t[1] - 1) * (t[1] - 2) // 2 + t[0] - 1
    lead, cols = y.shape[:-2], y.shape[-1]
    for images in _factor_images(rep):
        a = images[index]
        y = np.swapaxes(y.reshape(lead + (len(a), -1)), -1, -2) @ a
    return y.reshape(lead + (cols, rep.dim))


def _factor_images(rep: GroupRep) -> tuple[np.ndarray, ...]:
    """turn's images, once per rep: a tensor's two irreps', or rep's own."""
    if rep._factors is None:
        reps = map(irrep, rep.labels) if rep.kind == "tensor" else (rep,)
        rep._factors = tuple(map(transposition_images, reps))
    return rep._factors


@lru_cache(maxsize=None)
def fourier_transform_matrix(n: int) -> np.ndarray:
    """Dense |G| x |G| Fourier transform: entry sqrt(d/|G|) rho^lambda_ij(pi)
    at row (lambda, i, j) and column pi."""
    shapes = enumerate_partitions(n)
    size = math.factorial(n)
    # The transform, and the irrep stacks it is filled from: n!^2 float64
    # entries each.
    require_bytes(size * size * (8 + 8), f"the {size} x {size} Fourier transform of S_{n}")
    ft = np.empty((size, size))
    row = 0
    for shape in shapes:
        d = irrep_dimension(shape)
        stack = rep_stack(irrep(shape))
        ft[row : row + d * d] = math.sqrt(d / size) * stack.reshape(size, d * d).T
        row += d * d
    ft.setflags(write=False)
    return ft
