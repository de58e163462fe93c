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
irreps.

Characters and multiplicities need no matrix: the characters module reads
a GroupRep only through its n, kind, labels and dim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InvalidArgumentError, require_bytes
from .symgroup import (
    Partition,
    Permutation,
    adjacent_transposition_decomposition,
    axial_distance,
    compose,
    enumerate_group,
    enumerate_partitions,
    enumerate_tableaux,
    group_index,
    inverse,
    irrep_dimension,
)

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


def yy_generator_matrix(shape: Partition, i: int) -> np.ndarray:
    """Orthogonal Young-Yamanouchi matrix for the adjacent transposition
    sigma_i in the irrep labeled by shape.

    In the canonical tableau order, the column for tableau k has 1/tau at k
    and sqrt(1 - 1/tau^2) at the tableau obtained by swapping i and i+1,
    when that swap is standard; tau is the axial distance of i in k.
    """
    tableaux = enumerate_tableaux(shape)
    if not 1 <= i <= shape.n - 1:
        raise InvalidArgumentError(f"generator index {i} out of range for S_{shape.n}")
    index = {t.rows: k for k, t in enumerate(tableaux)}
    d = len(tableaux)
    mat = np.zeros((d, d))
    for k, t in enumerate(tableaux):
        tau = axial_distance(t, i)
        mat[k, k] = 1.0 / tau
        swapped = t.swap(i)
        if swapped is not None:
            mat[index[swapped.rows], k] = math.sqrt(1.0 - 1.0 / tau**2)
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
def _stack_plan(n: int) -> tuple[tuple[int, int], ...]:
    """For each element g != e of enumerate_group(n), in order: the index
    of g' = g o sigma_{j+1} and the generator index j, where j is the
    first descent of g's one-line word.  Swapping that descent makes the
    word lexicographically smaller, so g' precedes g."""
    plan = []
    for g in enumerate_group(n)[1:]:
        word = list(g.images)
        j = next(j for j in range(n - 1) if word[j] > word[j + 1])
        word[j], word[j + 1] = word[j + 1], word[j]
        plan.append((group_index(Permutation(tuple(word))), j))
    return tuple(plan)


def rep_stack(rep: GroupRep) -> np.ndarray:
    """rep(g) for every g of enumerate_group(rep.n), as a read-only
    |G| x D x D array built once per representation, one product per
    element: rep(g) = rep(g o sigma_{j+1}) rep(sigma_{j+1})."""
    if rep._stack is None:
        images = _images(rep)
        require_bytes(stack_bytes(rep), f"the stack of S_{rep.n} at D = {rep.dim}")
        plan = _stack_plan(rep.n)
        stack = np.empty((len(plan) + 1, rep.dim, rep.dim))
        stack[0] = np.eye(rep.dim)
        for k, (parent, j) in enumerate(plan, start=1):
            np.matmul(stack[parent], images[j], out=stack[k])
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
