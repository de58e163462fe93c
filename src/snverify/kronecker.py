"""Irrep multiplicities and Kronecker coefficients via two independent
routes: character sums over conjugacy classes, and the count of irrep
blocks in an isotypic component.  Kronecker sums read whole columns
(yyrep.character_columns), one walk of the table for every m_lambda of a
pair, kept for the last pair only; multiplicity_character reads single
entries (yyrep.irrep_character).  Both come from the one border-strip
kernel of yyrep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import InvalidArgumentError, NumericalConsistencyError
from .symgroup import Partition, class_size, enumerate_partitions
from .yyrep import GroupRep, character_columns, class_character, irrep_character, tensor_rep


@dataclass(frozen=True)
class Multiplicity:
    value: int
    route: str

    def __post_init__(self):
        if self.value < 0:
            raise NumericalConsistencyError(f"multiplicity {self.value} is negative")


def _group_average(total: int, n: int, context: str) -> int:
    """total / n!, which must be a nonnegative integer."""
    m, rem = divmod(total, math.factorial(n))
    if rem != 0 or m < 0:
        raise NumericalConsistencyError(
            f"{context}: character sum {total} is not a nonnegative multiple of {n}!"
        )
    return m


def multiplicity_character(rep: GroupRep, shape: Partition) -> Multiplicity:
    """m = (1/|G|) sum_g chi^shape(g) chi^rep(g), summed exactly per
    conjugacy class weighted by class size (S_n characters are real)."""
    if shape.n != rep.n:
        raise InvalidArgumentError(f"degree mismatch: partition of {shape.n}, rep of S_{rep.n}")
    total = sum(
        class_size(ct) * irrep_character(shape, ct) * class_character(rep, ct)
        for ct in enumerate_partitions(rep.n)
    )
    value = _group_average(total, rep.n, f"multiplicity of {shape} in {rep.kind}")
    return Multiplicity(value=value, route="character-sum")


# One entry: a command asks for one (mu, nu) pair, often once per lam.
@lru_cache(maxsize=1)
def kronecker_multiplicities(mu: Partition, nu: Partition) -> dict[Partition, int]:
    """m_{mu nu lam} = sum_rho |C_rho| chi^mu chi^nu chi^lam / n! for every
    lam.  The dict is shared by every caller of the pair: read it only."""
    if mu.n != nu.n:
        raise InvalidArgumentError(f"degree mismatch: {mu} vs {nu}")
    shapes = enumerate_partitions(mu.n)
    i, j = shapes.index(mu), shapes.index(nu)
    totals = [0] * len(shapes)
    for rho, column in character_columns(mu.n):
        weight = class_size(rho) * column[i] * column[j]
        if weight:
            totals = [t + weight * c for t, c in zip(totals, column)]
    return {lam: _group_average(t, mu.n, f"kronecker({mu};{nu};{lam})")
            for lam, t in zip(shapes, totals)}


def kronecker_coefficient(
    mu: Partition, nu: Partition, lam: Partition, route: str = "char"
) -> Multiplicity:
    """Kronecker coefficient m_{mu nu lam}.

    route "char" uses the triple character sum; route "rank" counts the
    irrep blocks of the lam component, which the block builder checks
    against the character route's m; route "both" does both.
    """
    from .wfs import isotypic_block_basis  # avoid import cycle

    if not mu.n == nu.n == lam.n:
        raise InvalidArgumentError(f"partitions must share n: {mu}, {nu}, {lam}")
    if route not in ("char", "rank", "both"):
        raise InvalidArgumentError(f"unknown route {route!r}")
    if route != "char":  # the builder raises unless it finds the character route's m blocks
        rank = len(isotypic_block_basis(tensor_rep(mu, nu), lam))
        if route == "rank":
            return Multiplicity(value=rank, route="projector-rank")
    return Multiplicity(value=kronecker_multiplicities(mu, nu)[lam], route="character-sum")
