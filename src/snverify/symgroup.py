"""Partitions, standard Young tableaux, and permutations of S_n.

All values are immutable after construction and every operation is a pure
function, so unrestricted concurrent reads are safe.

Conventions fixed here and relied on everywhere else:
  - partitions of n are enumerated in reverse-lexicographic order,
    (n) first and (1,...,1) last;
  - standard tableaux of a shape are ordered lexicographically by their
    row-reading word;
  - group elements are ordered lexicographically by one-line notation;
  - compose(p, q) applies q first: compose(p, q)(x) = p(q(x)).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import InvalidArgumentError, require_bytes

# Measured Python memory per enumerated element, to price enumerations.
PERMUTATION_BYTES = 185
PARTITION_BYTES = 240
TABLEAU_BYTES = 570


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    """The integers of comma-separated ASCII digit tokens; int() alone would
    also read '3_0' as 30, '+3' and non-ASCII digits."""
    tokens = text.split(",")
    if not all(tok.isascii() and tok.isdigit() for tok in tokens):
        raise InvalidArgumentError(f"cannot parse {what} {text!r}")
    return tuple(map(int, tokens))


@dataclass(frozen=True, order=True)
class Partition:
    """A partition of n: weakly decreasing positive parts summing to n."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts:
            raise InvalidArgumentError("partition must have at least one part")
        if any(p < 1 for p in self.parts):
            raise InvalidArgumentError(f"partition parts must be positive: {self.parts}")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise InvalidArgumentError(f"partition parts must be weakly decreasing: {self.parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)

    @staticmethod
    def parse(text: str) -> "Partition":
        return Partition(_parse_ints(text, "partition"))


@dataclass(frozen=True)
class StandardTableau:
    """A standard filling of a Young diagram with 1..n."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        entries = [e for row in self.rows for e in row]
        n = len(entries)
        if sorted(entries) != list(range(1, n + 1)):
            raise InvalidArgumentError(f"tableau entries must be exactly 1..{n}")
        for row in self.rows:
            if any(a >= b for a, b in zip(row, row[1:])):
                raise InvalidArgumentError("tableau rows must strictly increase")
        for r in range(len(self.rows) - 1):
            upper, lower = self.rows[r], self.rows[r + 1]
            if len(lower) > len(upper):
                raise InvalidArgumentError("tableau shape must be a partition")
            if any(upper[c] >= lower[c] for c in range(len(lower))):
                raise InvalidArgumentError("tableau columns must strictly increase")

    @property
    def shape(self) -> Partition:
        return Partition(tuple(len(row) for row in self.rows))

    @property
    def n(self) -> int:
        return sum(len(row) for row in self.rows)

    def position_of(self, value: int) -> tuple[int, int]:
        """(row, col), 0-indexed, of a given entry."""
        for r, row in enumerate(self.rows):
            for c, e in enumerate(row):
                if e == value:
                    return r, c
        raise InvalidArgumentError(f"entry {value} not in tableau")

    def reading_word(self) -> tuple[int, ...]:
        return tuple(e for row in self.rows for e in row)


@dataclass(frozen=True)
class Permutation:
    """Element of S_n in one-line notation: images[k-1] = g(k)."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise InvalidArgumentError(f"not a permutation of 1..{n}: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.images)

    @staticmethod
    def parse(text: str) -> "Permutation":
        return Permutation(_parse_ints(text, "permutation"))

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @staticmethod
    def transposition(n: int, i: int) -> "Permutation":
        """Adjacent transposition sigma_i = (i, i+1) in S_n."""
        if not 1 <= i <= n - 1:
            raise InvalidArgumentError(f"transposition index {i} out of range for S_{n}")
        images = list(range(1, n + 1))
        images[i - 1], images[i] = images[i], images[i - 1]
        return Permutation(tuple(images))

    def cycles(self) -> list[tuple[int, ...]]:
        seen = set()
        out = []
        for start in range(1, self.n + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            x = self(start)
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = self(x)
            out.append(tuple(cyc))
        return out


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Composition p after q: compose(p, q)(x) = p(q(x))."""
    if p.n != q.n:
        raise InvalidArgumentError(f"degree mismatch: {p.n} vs {q.n}")
    return Permutation(tuple(p.images[q.images[k] - 1] for k in range(p.n)))


def inverse(p: Permutation) -> Permutation:
    inv = [0] * p.n
    for k, v in enumerate(p.images):
        inv[v - 1] = k + 1
    return Permutation(tuple(inv))


def conjugacy_class_of(p: Permutation) -> Partition:
    """Cycle type of a permutation, as a partition of n."""
    return Partition(tuple(sorted((len(c) for c in p.cycles()), reverse=True)))


def class_size(cycle_type: Partition) -> int:
    """Number of elements of S_n with the given cycle type: n!/z where
    z = prod_k k^{m_k} m_k!."""
    n = cycle_type.n
    z = 1
    counts: dict[int, int] = {}
    for part in cycle_type.parts:
        counts[part] = counts.get(part, 0) + 1
    for k, m in counts.items():
        z *= k**m * math.factorial(m)
    return math.factorial(n) // z


@lru_cache(maxsize=None)
def enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse-lexicographic order."""
    if n < 1:
        raise InvalidArgumentError(f"n must be positive, got {n}")
    require_bytes(_partition_count(n) * PARTITION_BYTES, f"the partitions of {n}")

    def rec(remaining: int, max_part: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, max_part), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    return tuple(Partition(parts) for parts in rec(n, n))


def _partition_count(n: int) -> int:
    """p(n) by the largest part allowed; past n = 417 it returns p(417) >
    2^64, a lower bound already beyond any memory, without an n-sized table."""
    n = min(n, 417)
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            counts[total] += counts[total - part]
    return counts[n]


@lru_cache(maxsize=None)
def enumerate_tableaux(shape: Partition) -> tuple[StandardTableau, ...]:
    """All standard tableaux of a shape, ordered lexicographically by
    row-reading word."""
    d = irrep_dimension(shape)
    require_bytes(d * TABLEAU_BYTES, f"the {d} standard tableaux of {shape}")
    rows = shape.parts
    n = shape.n
    # Grow entry by entry; each of 1..n goes in the leftmost empty cell of
    # some row, subject to standardness.  The filled cells always form a
    # partition prefix of each row, so standardness reduces to a column check.
    results: list[StandardTableau] = []

    def rec(filled: list[list[int]]):
        k = 1 + sum(len(row) for row in filled)
        if k > n:
            results.append(StandardTableau(tuple(tuple(row) for row in filled)))
            return
        for r in range(len(rows)):
            c = len(filled[r])
            if c >= rows[r]:
                continue
            if r > 0 and len(filled[r - 1]) <= c:
                continue  # cell above must already be filled
            filled[r].append(k)
            rec(filled)
            filled[r].pop()

    rec([[] for _ in rows])
    return tuple(sorted(results, key=lambda t: t.reading_word()))


@lru_cache(maxsize=None)
def irrep_dimension(shape: Partition) -> int:
    """Dimension of the irrep labeled by a shape, by the hook-length formula."""
    rows = shape.parts
    n = shape.n
    # The column lengths (a pointer and an int each); n!, the hook product and d.
    require_bytes(rows[0] * 40 + 3 * (n * n.bit_length() // 8), f"the dimension of {shape}")
    cols = [0] * rows[0]
    for row_len in rows:
        for c in range(row_len):
            cols[c] += 1
    hook_product = 1
    for r, row_len in enumerate(rows):
        for c in range(row_len):
            hook_product *= (row_len - c) + (cols[c] - r) - 1
    d, rem = divmod(math.factorial(shape.n), hook_product)
    if rem != 0:
        raise InvalidArgumentError(f"hook-length formula failed for {shape}")
    return d


def adjacent_transposition_decomposition(g: Permutation) -> list[int]:
    """Indices i_1..i_k with g = sigma_{i_1} o sigma_{i_2} o ... o sigma_{i_k}
    (composition left-to-right as listed, rightmost applied first), at most
    n(n-1)/2 of them: swaps of the first descent of g's one-line word until
    it is sorted, the parent chain of yyrep's group stack."""
    word, swaps = list(g.images), []
    while descents := [j for j in range(len(word) - 1) if word[j] > word[j + 1]]:
        j = descents[0]
        word[j], word[j + 1] = word[j + 1], word[j]
        swaps.append(j + 1)
    # word * s_{j1} * ... * s_{jm} = e  =>  g = s_{jm} o ... o s_{j1}
    return swaps[::-1]


@lru_cache(maxsize=None)
def enumerate_group(n: int) -> tuple[Permutation, ...]:
    """All of S_n, ordered lexicographically by one-line notation."""
    if n < 1:
        raise InvalidArgumentError(f"n must be positive, got {n}")
    size = math.factorial(n)
    require_bytes(size * PERMUTATION_BYTES, f"the {size} elements of S_{n}")
    return tuple(
        Permutation(images) for images in itertools.permutations(range(1, n + 1))
    )


def group_index(g: Permutation) -> int:
    """Position of g in enumerate_group(g.n)."""
    # Lehmer code gives the lexicographic rank directly.
    rank = 0
    images = list(g.images)
    n = len(images)
    for k in range(n):
        smaller = sum(1 for v in images[k + 1 :] if v < images[k])
        rank += smaller * math.factorial(n - 1 - k)
    return rank
