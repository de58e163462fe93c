"""The exact layer, with no matrix and no NumPy: characters of S_n and
irrep multiplicities as Python integers.  One Murnaghan-Nakayama kernel,
_add_strips, adds every border strip of one length to a dict of abacus
masks: character_columns runs it forward from the empty shape, a column of
the table at a time, and irrep_character on the upside-down abacus for one
entry.  Every multiplicity comes from one walk of the columns.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .errors import InvalidArgumentError, NumericalConsistencyError, require_bytes
from .symgroup import Partition, class_size, enumerate_partitions, irrep_dimension

# What a character walk holds beyond its entries (frames, the partitions it
# reads, the dicts of a level), by tracemalloc in a fresh process: 0.8 kB
# for the entry chi^(1)((1)), 3.5 kB for the columns of S_2.
WALK_FIXED_BYTES = 4096


# Bounded: a miss costs one walk, so the memo need not keep every entry.
@lru_cache(maxsize=1 << 12)
def irrep_character(shape: Partition, cycle_type: Partition) -> int:
    """Character of the irrep at a conjugacy class, an exact integer by the
    Murnaghan-Nakayama rule (Sagan, The Symmetric Group, 4.10).

    Removing a border strip from lambda is adding one on the upside-down
    abacus: bead p of character_columns' mask sits at 2n - 1 - p, so lambda
    has bits n + i - lambda_i and the empty shape the top n of 2n slots.
    _add_strips then removes one part of rho at a time, and a bead pushed
    past slot 2n - 1 leaves no shape.  Every state is a shape inside lambda,
    one level at a time."""
    if shape.n != cycle_type.n:
        raise InvalidArgumentError(
            f"degree mismatch: class of S_{cycle_type.n}, irrep of S_{shape.n}"
        )
    n = shape.n
    # Each level holds at most the shapes inside lambda, at character_columns' 144 B an entry.
    require_bytes(WALK_FIXED_BYTES + _shapes_inside(shape) * 144, f"the character walk of {shape}")
    parts = shape.parts + (0,) * (n - len(shape.parts))
    level, limit = {sum(1 << (n + i - p) for i, p in enumerate(parts)): 1}, 1 << 2 * n
    for r in cycle_type.parts:
        level = {m: v for m, v in _add_strips(level, r).items() if m < limit}
    return level.get(((1 << n) - 1) << n, 0)


def _shapes_inside(shape: Partition) -> int:
    """The number of partitions kappa with kappa_i <= lambda_i, by rows from
    the last: ways[c] counts the rows below with the top one at most c."""
    ways = [1] * (shape.parts[0] + 1)
    for part in reversed(shape.parts):
        kept = list(itertools.accumulate(ways[: part + 1]))
        ways = kept + kept[-1:] * (len(ways) - part - 1)
    return ways[-1]


def character_columns(n: int):
    """Yield (rho, [chi^lambda(rho) for lambda in enumerate_partitions(n)])
    for every cycle type rho of n by the forward Murnaghan-Nakayama rule,
    each column checked to square-sum to n!/|C_rho|.  lambda is the n-bead
    mask with bits lambda_i + n - i; a strip of length r moves a bead b up
    to an empty b + r, with sign (-1)^(beads between).  The walk goes depth
    first down the trie of cycle types, parts smallest first (at n = 20,
    1,253 nodes extend 89,033 masks; largest first, 2,713 and 603,953)."""
    shapes = enumerate_partitions(n)
    # n live columns of at most p(n) entries, 70-141 B each from n = 10 to 25 (tracemalloc).
    require_bytes(WALK_FIXED_BYTES + n * len(shapes) * 144, f"the character walk of S_{n}")
    masks = [sum(1 << (p + n - 1 - i) for i, p in enumerate(s.parts + (0,) * (n - len(s.parts))))
             for s in shapes]

    def walk(column: dict[int, int], left: int, least: int, parts: tuple[int, ...]):
        if not left:
            yield Partition(parts[::-1]), [column.get(m, 0) for m in masks]
            return
        for r in [*range(least, left // 2 + 1), left]:
            yield from walk(_add_strips(column, r), left - r, r, parts + (r,))

    for rho, values in walk({(1 << n) - 1: 1}, n, 1, ()):
        if sum(v * v for v in values) * class_size(rho) != math.factorial(n):
            raise NumericalConsistencyError(f"column {rho} of S_{n}: squares do not sum to n!/|C|")
        yield rho, values


def _add_strips(column: dict[int, int], r: int) -> dict[int, int]:
    """Every border strip of length r added to every mask of column."""
    out: dict[int, int] = {}
    for mask, value in column.items():
        movable = mask & ~(mask >> r)
        while movable:
            low = movable & -movable
            movable ^= low
            high = low << r
            odd = (mask & (high - (low << 1))).bit_count() & 1
            out[mask ^ low ^ high] = out.get(mask ^ low ^ high, 0) + (-value if odd else value)
    return out


def _group_average(total: int, n: int, context: str) -> int:
    """total / n!, which must be a nonnegative integer."""
    m, rem = divmod(total, math.factorial(n))
    if rem != 0 or m < 0:
        raise NumericalConsistencyError(
            f"{context}: character sum {total} is not a nonnegative multiple of {n}!"
        )
    return m


def multiplicities(rep) -> dict[Partition, int]:
    """m_lambda = (1/n!) sum_rho |C_rho| chi^lambda(rho) chi^rep(rho) for every
    lambda, in enumerate_partitions order, from one walk of character_columns.
    rep is read only through n, kind, labels and dim, which fix its
    character.  The dict is shared by every caller: read it only."""
    return _multiplicities(rep.n, rep.kind, rep.labels, rep.dim)


# One entry: a command asks for one representation, often once per lambda.
@lru_cache(maxsize=1)
def _multiplicities(n: int, kind: str, labels: tuple, dim: int) -> dict[Partition, int]:
    """chi^rep(rho) is dim / prod d_label times the labels' entries of rho's
    column: chi^lambda, chi^mu chi^nu or m chi^lambda for I_m x rho^lambda;
    a regular representation has no labels, and chi is n! [rho = 1^n]."""
    regular = kind in ("left-regular", "right-regular")
    if not regular and kind not in ("irrep", "tensor", "identity-times-irrep"):
        raise InvalidArgumentError(f"no character for representation kind {kind!r}")
    shapes = enumerate_partitions(n)
    at = [shapes.index(shape) for shape in labels]
    scale = dim // math.prod(map(irrep_dimension, labels))
    totals = [0] * len(shapes)
    for rho, column in character_columns(n):
        chi = (rho.parts == (1,) * n) if regular else math.prod(column[i] for i in at)
        if weight := class_size(rho) * scale * chi:
            totals = [t + weight * c for t, c in zip(totals, column)]
    return {lam: _group_average(t, n, f"multiplicity of {lam} in the {kind} of S_{n}")
            for lam, t in zip(shapes, totals)}


def lightning_distribution(mu: Partition, nu: Partition) -> dict[Partition, float]:
    """Distribution of the sampled irrep label when weak Fourier sampling is
    applied to the maximally entangled state: shape -> (d/(d_mu d_nu)) * m,
    m the multiplicity of shape in rho^mu x rho^nu."""
    if mu.n != nu.n:
        raise InvalidArgumentError(f"degree mismatch: {mu} vs {nu}")
    d_mu, d_nu = irrep_dimension(mu), irrep_dimension(nu)
    weights = {shape: irrep_dimension(shape) * m
               for shape, m in _multiplicities(mu.n, "tensor", (mu, nu), d_mu * d_nu).items()}
    total = sum(weights.values())
    if total != d_mu * d_nu:
        raise NumericalConsistencyError(
            f"lightning weights sum to {total}, not d_mu d_nu = {d_mu * d_nu}"
        )
    return {shape: w / (d_mu * d_nu) for shape, w in weights.items()}
