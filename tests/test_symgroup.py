"""Combinatorial foundations, checked against independent brute-force
oracles: partition enumeration, standard tableaux, hook-length dimensions,
permutation algebra, and adjacent-transposition decompositions.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snverify.errors import InvalidArgumentError, ResourceLimitError
from snverify.symgroup import (
    Partition,
    Permutation,
    StandardTableau,
    adjacent_transposition_decomposition,
    class_size,
    compose,
    conjugacy_class_of,
    enumerate_group,
    enumerate_partitions,
    enumerate_tableaux,
    group_index,
    inverse,
    irrep_dimension,
)
from snverify.yyrep import swap_contents, tableau_contents


# ---------------------------------------------------------------- oracles

def oracle_partitions(n: int) -> set[tuple[int, ...]]:
    """Brute force: all weakly decreasing positive tuples summing to n."""
    found = set()
    for k in range(1, n + 1):
        for combo in itertools.product(range(1, n + 1), repeat=k):
            if sum(combo) == n and all(a >= b for a, b in zip(combo, combo[1:])):
                found.add(combo)
    return found


def oracle_standard_tableaux(rows: tuple[int, ...]) -> set[tuple[tuple[int, ...], ...]]:
    """Brute force: fill the shape with every permutation of 1..n and keep
    the standard ones."""
    n = sum(rows)
    found = set()
    for perm in itertools.permutations(range(1, n + 1)):
        filled, k = [], 0
        for r in rows:
            filled.append(tuple(perm[k : k + r]))
            k += r
        ok = all(
            all(a < b for a, b in zip(row, row[1:])) for row in filled
        ) and all(
            filled[r][c] < filled[r + 1][c]
            for r in range(len(filled) - 1)
            for c in range(len(filled[r + 1]))
        )
        if ok:
            found.add(tuple(filled))
    return found


# --------------------------------------------------------------- partitions

PARTITION_COUNTS = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15}


@pytest.mark.parametrize("n", range(1, 8))
def test_partition_enumeration_matches_brute_force(n):
    got = {p.parts for p in enumerate_partitions(n)}
    assert got == oracle_partitions(n)
    assert len(got) == PARTITION_COUNTS[n]


@pytest.mark.parametrize("n", range(1, 8))
def test_partition_order_is_reverse_lexicographic(n):
    shapes = enumerate_partitions(n)
    assert shapes[0].parts == (n,)
    assert shapes[-1].parts == (1,) * n
    assert list(shapes) == sorted(shapes, key=lambda p: p.parts, reverse=True)


def test_partition_validation():
    with pytest.raises(InvalidArgumentError):
        Partition((1, 2))
    with pytest.raises(InvalidArgumentError):
        Partition((2, 0))
    with pytest.raises(InvalidArgumentError):
        Partition(())
    with pytest.raises(InvalidArgumentError):
        Partition.parse("2,x")


def test_partition_str_round_trip():
    for n in range(1, 7):
        for p in enumerate_partitions(n):
            assert Partition.parse(str(p)) == p


@pytest.mark.parametrize("text", ["3_0", "+3", "\u0663", " 3", "3 ", "3,,1", "2,1_0", "2,+1", "-1"])
def test_parse_reads_ascii_digit_tokens_only(text):
    # int() alone reads '3_0' as 30 and accepts a sign, spaces and non-ASCII
    # digits such as ARABIC-INDIC DIGIT THREE.
    for parse in (Partition.parse, Permutation.parse):
        with pytest.raises(InvalidArgumentError, match="cannot parse"):
            parse(text)
    assert Partition.parse("30") == Partition((30,))
    assert Permutation.parse("2,10,1,3,4,5,6,7,8,9").images[1] == 10


# ----------------------------------------------------------------- tableaux

@pytest.mark.parametrize(
    "parts",
    [(2, 1), (3, 1), (2, 2), (2, 1, 1), (3, 2), (2, 2, 1), (4, 2), (3, 3), (3, 2, 1)],
)
def test_tableaux_match_brute_force(parts):
    got = {t.rows for t in enumerate_tableaux(Partition(parts))}
    assert got == oracle_standard_tableaux(parts)


def test_tableaux_ordered_by_reading_word():
    for n in range(2, 7):
        for shape in enumerate_partitions(n):
            tableaux = enumerate_tableaux(shape)
            words = [t.reading_word() for t in tableaux]
            assert words == sorted(words)


def test_tableau_count_equals_hook_dimension():
    for n in range(1, 7):
        for shape in enumerate_partitions(n):
            assert len(enumerate_tableaux(shape)) == irrep_dimension(shape)


def test_dimension_squares_sum_to_group_order():
    for n in range(1, 8):
        assert sum(irrep_dimension(s) ** 2 for s in enumerate_partitions(n)) == math.factorial(n)


def test_frozen_dimensions():
    assert irrep_dimension(Partition((2, 1))) == 2
    assert irrep_dimension(Partition((3, 1))) == 3
    assert irrep_dimension(Partition((2, 2))) == 2
    assert irrep_dimension(Partition((2, 1, 1))) == 3
    assert irrep_dimension(Partition((6,))) == 1
    assert irrep_dimension(Partition((1,) * 6)) == 1
    assert irrep_dimension(Partition((4, 3, 2, 1))) == 768


def test_tableau_validation():
    with pytest.raises(InvalidArgumentError):
        StandardTableau(((1, 3), (2, 2)))
    with pytest.raises(InvalidArgumentError):
        StandardTableau(((2, 1), (3,)))
    with pytest.raises(InvalidArgumentError):
        StandardTableau(((1,), (2, 3)))


def test_tableau_swap_is_involutive_when_standard(tableau_swap, axial_distance):
    # The content table's arithmetic against the validated swap: tau is the
    # axial distance, the swap is standard iff |tau| > 1, and the swapped
    # content vector indexes the swapped tableau.
    for shape in enumerate_partitions(5):
        tableaux = enumerate_tableaux(shape)
        contents, index = tableau_contents(shape)
        assert sorted(index.values()) == list(range(len(tableaux)))
        for k, t in enumerate(tableaux):
            c = tuple(contents[k].tolist())
            for i in range(1, 5):
                s = tableau_swap(t, i)
                tau = c[i] - c[i - 1]
                assert tau == axial_distance(t, i)
                assert (s is not None) == (abs(tau) > 1)
                if s is not None:
                    assert tableau_swap(s, i) == t
                    assert axial_distance(s, i) == -axial_distance(t, i)
                    assert tableaux[index[swap_contents(c, i)]] == s


def test_axial_distance_same_row_and_column(axial_distance):
    t = StandardTableau(((1, 2), (3,)))
    assert axial_distance(t, 1) == 1  # same row, adjacent
    t2 = StandardTableau(((1, 3), (2,)))
    assert axial_distance(t2, 1) == -1  # same column, adjacent
    contents, index = tableau_contents(Partition((2, 1)))
    assert contents.tolist() == [[0, 1, -1], [0, -1, 1]]  # t, then t2
    assert index == {(0, 1, -1): 0, (0, -1, 1): 1}


# ------------------------------------------------------------- permutations

perm_strategy = st.integers(min_value=2, max_value=6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(lambda images: Permutation(tuple(images)))


@given(perm_strategy)
def test_inverse_is_two_sided(g):
    assert compose(g, inverse(g)) == Permutation.identity(g.n)
    assert compose(inverse(g), g) == Permutation.identity(g.n)


@given(st.data())
@settings(max_examples=60)
def test_compose_is_associative_and_applies_right_first(data):
    n = data.draw(st.integers(min_value=2, max_value=6))
    draw_perm = lambda: Permutation(tuple(data.draw(st.permutations(list(range(1, n + 1))))))
    p, q, r = draw_perm(), draw_perm(), draw_perm()
    assert compose(compose(p, q), r) == compose(p, compose(q, r))
    for x in range(1, n + 1):
        assert compose(p, q)(x) == p(q(x))


@given(perm_strategy)
def test_conjugacy_class_is_conjugation_invariant(g):
    for h in enumerate_group(g.n)[:6]:
        conj = compose(compose(h, g), inverse(h))
        assert conjugacy_class_of(conj) == conjugacy_class_of(g)


def test_class_sizes_sum_to_group_order():
    for n in range(1, 8):
        total = sum(class_size(ct) for ct in enumerate_partitions(n))
        assert total == math.factorial(n)


def test_class_size_matches_brute_force_count():
    for n in range(1, 6):
        for cycle_type in enumerate_partitions(n):
            count = sum(1 for g in enumerate_group(n) if conjugacy_class_of(g) == cycle_type)
            assert class_size(cycle_type) == count


# -------------------------------------------------------------- group order

def test_group_enumeration_is_lexicographic_and_complete():
    for n in range(1, 6):
        group = enumerate_group(n)
        assert len(group) == math.factorial(n)
        images = [g.images for g in group]
        assert images == sorted(images)
        assert len(set(images)) == len(images)


def test_group_index_matches_position():
    for n in range(1, 6):
        for k, g in enumerate(enumerate_group(n)):
            assert group_index(g) == k


def test_group_enumeration_cap(monkeypatch):
    # __wrapped__ skips the cache, so an earlier enumeration cannot hide the check.
    monkeypatch.delenv("SNVERIFY_MAX_BYTES", raising=False)
    with pytest.raises(ResourceLimitError):
        enumerate_group.__wrapped__(10)  # 3.6 M permutations, about 670 MB
    monkeypatch.setenv("SNVERIFY_MAX_BYTES", str(1 << 20))
    with pytest.raises(ResourceLimitError):
        enumerate_group.__wrapped__(8)


# ----------------------------------------------------------- decompositions

@given(g=perm_strategy)
def test_decomposition_reconstructs_the_permutation(insertion_word, g):
    for swaps in (adjacent_transposition_decomposition(g), insertion_word(g)):
        assert len(swaps) <= g.n * (g.n - 1) // 2
        acc = Permutation.identity(g.n)
        for i in swaps:
            acc = compose(acc, Permutation.transposition(g.n, i))
        assert acc == g


def test_decomposition_of_identity_is_empty():
    for n in range(1, 6):
        assert adjacent_transposition_decomposition(Permutation.identity(n)) == []


def test_decomposition_strategies_can_differ(insertion_word):
    # Both must multiply back to g, but the words themselves differ for
    # some elements; representation evaluation must not care.
    differing = 0
    for g in enumerate_group(4):
        differing += adjacent_transposition_decomposition(g) != insertion_word(g)
    assert differing > 0
