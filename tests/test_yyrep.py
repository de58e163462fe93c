"""Representation matrices and the group Fourier transform, checked
against frozen hand-derived matrices, brute-force character sums, and the
defining intertwining identities.
"""

import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snverify.characters import _shapes_inside, character_columns, irrep_character
from snverify.errors import InvalidArgumentError, ResourceLimitError
from snverify.symgroup import (
    Partition,
    Permutation,
    class_size,
    compose,
    conjugacy_class_of,
    enumerate_group,
    enumerate_partitions,
    inverse,
    irrep_dimension,
)
from snverify import yyrep
from snverify.yyrep import (
    fourier_transform_matrix,
    identity_times_irrep,
    irrep,
    regular_representations,
    rep_evaluate,
    rep_stack,
    stack_bytes,
    tensor_rep,
    transposition_images,
    turn,
    yy_generator_matrix,
)

P = Partition.parse

SQ3 = math.sqrt(3.0) / 2.0

# Hand-derived generator matrices for the 2-dimensional irrep of S_3 in
# the canonical tableau order (rows (1,2),(3) before rows (1,3),(2)):
# sigma_1 fixes/negates the two tableaux (axial distances +1 and -1);
# sigma_2 has axial distance -2 on the first tableau and mixes the pair.
S3_GEN_1 = np.array([[1.0, 0.0], [0.0, -1.0]])
S3_GEN_2 = np.array([[-0.5, SQ3], [SQ3, 0.5]])


def test_frozen_generator_matrices_for_two_dim_irrep():
    rep = irrep(P("2,1"))
    np.testing.assert_allclose(rep.generator_images[0], S3_GEN_1, atol=1e-12)
    np.testing.assert_allclose(rep.generator_images[1], S3_GEN_2, atol=1e-12)


def test_frozen_three_cycle_matrix():
    # (1 2 3) = sigma_1 then sigma_2, a rotation by 2*pi/3
    rep = irrep(P("2,1"))
    g = Permutation((2, 3, 1))
    expected = np.array([[-0.5, SQ3], [-SQ3, -0.5]])
    np.testing.assert_allclose(rep_evaluate(rep, g), expected, atol=1e-12)


def test_generator_images_are_orthogonal_involutions():
    for n in range(2, 6):
        for shape in enumerate_partitions(n):
            rep = irrep(shape)
            for img in rep.generator_images:
                np.testing.assert_allclose(img @ img, np.eye(rep.dim), atol=1e-12)
                np.testing.assert_allclose(img, img.T.conj(), atol=1e-12)
                assert np.allclose(img.imag, 0.0)


def test_braid_and_commutation_relations():
    for n in range(3, 6):
        for shape in enumerate_partitions(n):
            imgs = irrep(shape).generator_images
            for i in range(len(imgs) - 1):
                a, b = imgs[i], imgs[i + 1]
                np.testing.assert_allclose(a @ b @ a, b @ a @ b, atol=1e-12)
            for i in range(len(imgs)):
                for j in range(i + 2, len(imgs)):
                    np.testing.assert_allclose(
                        imgs[i] @ imgs[j], imgs[j] @ imgs[i], atol=1e-12
                    )


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_evaluation_is_a_homomorphism(data):
    n = data.draw(st.integers(min_value=2, max_value=5))
    shape = data.draw(st.sampled_from(enumerate_partitions(n)))
    draw = lambda: Permutation(tuple(data.draw(st.permutations(list(range(1, n + 1))))))
    g, h = draw(), draw()
    rep = irrep(shape)
    np.testing.assert_allclose(
        rep_evaluate(rep, g) @ rep_evaluate(rep, h),
        rep_evaluate(rep, compose(g, h)),
        atol=1e-10,
    )


def test_evaluation_is_decomposition_independent(insertion_word, dense_rep):
    # Multiplying generator images along the alternate decomposition, and
    # the whole-group stack, must reproduce the first-descent evaluation.
    reps = [irrep(shape) for n in range(1, 6) for shape in enumerate_partitions(n)]
    reps += [
        dense_rep(tensor_rep(P("2,1"), P("2,1"))),
        identity_times_irrep(2, P("2,1")),
        regular_representations(3)[0],
    ]
    for rep in reps:
        stack = rep_stack(rep)
        group = enumerate_group(rep.n)
        assert stack.shape == (len(group), rep.dim, rep.dim)
        assert not stack.flags.writeable
        assert rep_stack(rep) is stack
        for k, g in enumerate(group):
            chain = rep_evaluate(rep, g)
            np.testing.assert_allclose(stack[k], chain, rtol=0, atol=1e-12)
            if rep.n > 4:
                continue
            alt = np.eye(rep.dim, dtype=complex)
            for i in insertion_word(g):
                alt = alt @ rep.generator_images[i - 1]
            np.testing.assert_allclose(alt, chain, rtol=0, atol=1e-12)


def test_evaluation_is_the_stack_bit_for_bit():
    # rep_evaluate multiplies along the stack's parent chain, the first
    # descent swapped each time, so each image is the same product.
    for n in range(1, 7):
        group = enumerate_group(n)
        for shape in enumerate_partitions(n):
            rep = irrep(shape)
            stack = rep_stack(rep).view(np.uint64)
            for k, g in enumerate(group):
                assert np.array_equal(rep_evaluate(rep, g).view(np.uint64), stack[k]), (shape, g)


def test_representation_data_is_float64_and_priced_as_held():
    # The irreps are real orthogonal; every image and stack holds float64.
    assert yy_generator_matrix(P("3,2"), 2).dtype == np.float64
    reps = [
        irrep(P("3,2")),
        identity_times_irrep(3, P("2,1")),
        regular_representations(3)[1],
    ]
    for rep in reps:
        assert all(img.dtype == np.float64 for img in rep.generator_images), rep.kind
        stack = rep_stack(rep)
        assert stack.dtype == np.float64, rep.kind
        assert stack_bytes(rep) == stack.nbytes, rep.kind


def test_yy_matrices_match_the_tableau_swap_oracle(yy_oracle):
    # Bit for bit, every generator of every shape up to n = 9.
    for n in range(2, 10):
        for shape in enumerate_partitions(n):
            for i in range(1, n):
                got, want = yy_generator_matrix(shape, i), yy_oracle(shape, i)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (shape, i)


# Prints whether each stack equals the per-element oracle's bits, and a
# digest of all of them, under the BLAS threads the environment sets.
_STACK_CHECK = """
import hashlib, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from conftest import _stack_by_element
from snverify.symgroup import enumerate_partitions
from snverify.yyrep import irrep, regular_representations, rep_stack
reps = [irrep(shape) for n in range(1, 7) for shape in enumerate_partitions(n)]
reps += [rep for n in range(1, 5) for rep in regular_representations(n)]
digest, equal = hashlib.sha256(), []
for rep in reps:
    stack = rep_stack(rep).view(np.uint64)
    equal.append(bool(np.array_equal(stack, _stack_by_element(rep).view(np.uint64))))
    digest.update(stack.tobytes())
print(len(reps), all(equal), digest.hexdigest())
"""


def test_stacks_match_the_per_element_oracle_under_one_and_two_threads():
    # One product per batch forms the same dot products as one per element.
    tests = os.path.dirname(os.path.abspath(__file__))
    outputs = set()
    for threads in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", _STACK_CHECK, tests], capture_output=True,
                              text=True, env=dict(os.environ, OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr[-2000:]
        outputs.add(proc.stdout)
    (output,) = outputs  # and the same bits under both
    count, equal, _ = output.split()
    assert (int(count), equal) == (11 + 7 + 5 + 3 + 2 + 1 + 2 * 4, "True")


@pytest.mark.parametrize("n", range(1, 8))
def test_stack_plan_batches_partition_the_group_parents_first(n):
    group = enumerate_group(n)
    done = np.zeros(len(group), dtype=bool)
    done[0] = True  # e, which no batch holds
    for rows, parents, j in yyrep._stack_plan(n):
        assert not rows.flags.writeable and not parents.flags.writeable
        assert np.unique(rows).size == rows.size
        assert done[parents].all() and not done[rows].any()
        done[rows] = True
        sigma = Permutation.transposition(n, j + 1)
        for g, parent in zip(rows.tolist(), parents.tolist()):
            assert group[g] == compose(group[parent], sigma)
    assert done.all()


def test_stack_plan_is_priced_before_it_allocates(monkeypatch):
    # The trivial irrep of S_10 has a 29 MB stack, within a 64 MiB budget;
    # the plan of S_10 (3,628,800 words) is refused by its own price.
    monkeypatch.setenv("SNVERIFY_MAX_BYTES", str(1 << 26))
    rep = irrep(P("10"))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="the stack plan of S_10"):
            rep_stack(rep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@pytest.mark.parametrize("n", [4, 6, 8])
def test_stack_plan_holds_what_it_prices(n):
    yyrep._stack_plan.cache_clear()
    tracemalloc.start()
    try:
        yyrep._stack_plan(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= yyrep.PLAN_BYTES * math.factorial(n) + yyrep.PLAN_FIXED_BYTES


def test_inverse_evaluates_to_transpose():
    for shape in enumerate_partitions(4):
        rep = irrep(shape)
        for g in enumerate_group(4):
            np.testing.assert_allclose(
                rep_evaluate(rep, inverse(g)), rep_evaluate(rep, g).T.conj(), atol=1e-12
            )


def _transposition(n: int, j: int, k: int) -> Permutation:
    images = list(range(1, n + 1))
    images[j - 1], images[k - 1] = k, j
    return Permutation(tuple(images))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_turn_matches_the_dense_kron_oracle(n, dense_rep):
    # Every transposition of every pair: Y^T sigma(t) for a plain block, a
    # block with a leading batch axis and blocks of no columns, the empty
    # component of isotypic_block_basis.  The oracle's own turn is the
    # dense branch, and turning twice conjugates.
    rng = np.random.default_rng(n)
    shapes = enumerate_partitions(n)
    for mu in shapes:
        for nu in shapes:
            sigma = tensor_rep(mu, nu)
            oracle, d = dense_rep(sigma), sigma.dim
            for k in range(2, n + 1):
                for j in range(1, k):
                    image = rep_evaluate(oracle, _transposition(n, j, k))
                    for shape in ((d, 3), (2, d, 3), (d, 0), (2, d, 0)):
                        y = rng.standard_normal(shape)
                        want = np.swapaxes(y, -1, -2) @ image
                        got = turn(sigma, (j, k), y)
                        assert got.shape == want.shape, (mu, nu, shape)
                        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
                        np.testing.assert_allclose(turn(oracle, (j, k), y), want,
                                                   rtol=0, atol=1e-12)
                    x = rng.standard_normal((2, d, d))
                    np.testing.assert_allclose(turn(sigma, (j, k), turn(sigma, (j, k), x)),
                                               image @ x @ image, rtol=0, atol=1e-12)


def test_tensor_rep_builds_no_image_and_a_turn_stays_small():
    # D = 1,568: one dense image of sigma would take 19.7 MB.
    mu, nu = P("5,3"), P("4,2,2")
    for shape in (mu, nu):
        transposition_images(irrep(shape))
    y = np.ones((1568, 1))
    tracemalloc.start()
    try:
        sigma = tensor_rep(mu, nu)
        out = turn(sigma, (3, 8), y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sigma.dim == 1568 and sigma.generator_images == () and out.shape == (1, 1568)
    assert peak < 1 << 20, f"peak {peak} B"


def test_dense_evaluation_refuses_a_tensor_rep():
    sigma = tensor_rep(P("2,1"), P("2,1"))
    calls = (lambda: rep_evaluate(sigma, Permutation((2, 1, 3))),
             lambda: rep_stack(sigma), lambda: transposition_images(sigma))
    for call in calls:
        with pytest.raises(InvalidArgumentError, match="applied by turn only"):
            call()
    turn(sigma, (1, 3), np.eye(4))  # the factors' images, now held by sigma
    for call in calls:
        with pytest.raises(InvalidArgumentError, match="applied by turn only"):
            call()


# --------------------------------------------------------------- characters

# Character table of S_3: rows are shapes in canonical order, columns are
# cycle types (1,1,1), (2,1), (3) — hand-computed.
S3_CHAR_TABLE = {
    ("3",): {"1,1,1": 1, "2,1": 1, "3": 1},
    ("2,1",): {"1,1,1": 2, "2,1": 0, "3": -1},
    ("1,1,1",): {"1,1,1": 1, "2,1": -1, "3": 1},
}

# Character table of S_4, hand-computed via Frobenius / standard tables.
S4_CHAR_TABLE = {
    ("4",): {"1,1,1,1": 1, "2,1,1": 1, "2,2": 1, "3,1": 1, "4": 1},
    ("3,1",): {"1,1,1,1": 3, "2,1,1": 1, "2,2": -1, "3,1": 0, "4": -1},
    ("2,2",): {"1,1,1,1": 2, "2,1,1": 0, "2,2": 2, "3,1": -1, "4": 0},
    ("2,1,1",): {"1,1,1,1": 3, "2,1,1": -1, "2,2": -1, "3,1": 0, "4": 1},
    ("1,1,1,1",): {"1,1,1,1": 1, "2,1,1": -1, "2,2": 1, "3,1": 1, "4": -1},
}


@pytest.mark.parametrize("table", [S3_CHAR_TABLE, S4_CHAR_TABLE])
def test_character_tables(table):
    for (shape_text,), row in table.items():
        shape = P(shape_text)
        for cycle_text, value in row.items():
            assert irrep_character(shape, P(cycle_text)) == value


def _class_representative(cycle_type: Partition) -> Permutation:
    """The permutation (1..k1)(k1+1..k1+k2)... of the given cycle type."""
    images, start = [], 1
    for part in cycle_type.parts:
        images += list(range(start + 1, start + part)) + [start]
        start += part
    return Permutation(tuple(images))


def test_murnaghan_nakayama_matches_dense_trace_oracle():
    # The trace of the Young-Yamanouchi matrix at a class representative,
    # rounded, is an independent route to every character.
    for n in range(1, 8):
        for shape in enumerate_partitions(n):
            rep = irrep(shape)
            for ct in enumerate_partitions(n):
                g = _class_representative(ct)
                assert conjugacy_class_of(g) == ct
                trace = np.trace(rep_evaluate(rep, g)).real
                value = irrep_character(shape, ct)
                assert type(value) is int
                assert abs(trace - value) < 1e-9, (shape, ct, trace)


# Character table rows at n = 9 and n = 10, computed once by the dense
# trace oracle (rounded; largest rounding 1.8e-14).  Columns are cycle
# types in enumerate_partitions order, (n) first and (1^n) last.
FROZEN_ROWS = {
    "5,3,1": [0, 0, 1, 1, 0, 0, 0, -1, 0, 1, 1, -3, -2, 0, 0, -2, 0, -6, 0, 0,
              0, 0, 0, 0, 0, -6, 0, 6, 36, 162],
    "3,3,2,1": [0, 0, 0, 0, 1, 0, -2, -1, 0, -1, 1, 3, 0, 1, 1, 0, -2, 4, -3, -2,
                0, 1, 1, 1, -15, 0, -2, 4, -14, 168],
    "4,2,1,1,1": [0, 1, 0, 0, 0, 0, 0, -1, -1, -1, -1, -1, 1, 1, -1, -1, 1, -1, 0, 0,
                  0, 3, 1, 3, 9, -3, 3, -11, -21, 189],
    "6,4": [0, 0, 0, 0, -1, -1, -1, 1, 0, 1, -1, -3, 0, 1, -1, 1, -1, -1, -5, 2,
            2, -1, 0, 2, 4, 0, 0, -4, 0, -1, 1, 3, 0, 2, 4, 6, 10, 2, 6, 14, 34, 90],
    "5,2,2,1": [0, 0, 1, -1, 0, 0, 0, -1, 1, 1, -1, 1, 0, 0, 0, 0, 0, 0, 0, -1,
                1, -1, 0, 2, -1, 1, 3, 5, 3, -3, -1, -3, -2, 0, -10, 0, -5, 5, 7, -15,
                35, 525],
    "3,3,2,2": [0, 0, 0, 0, 0, 0, 0, -1, 0, 1, 1, -3, 2, 0, -1, -1, -2, 2, 2, 0,
                0, 1, 1, 1, 2, -2, -2, 10, 0, -1, -1, 3, 3, -1, -1, -21, -20, 4, 0, 8,
                -28, 252],
}


@pytest.mark.parametrize("shape_text", sorted(FROZEN_ROWS))
def test_frozen_character_rows_at_n9_and_n10(shape_text):
    shape = P(shape_text)
    row = [irrep_character(shape, ct) for ct in enumerate_partitions(shape.n)]
    assert row == FROZEN_ROWS[shape_text]


def test_character_at_identity_is_hook_length_dimension_at_n12():
    identity = Partition((1,) * 12)
    for shape in enumerate_partitions(12):
        assert irrep_character(shape, identity) == irrep_dimension(shape)


def test_exact_row_orthogonality_at_n10():
    shapes = enumerate_partitions(10)
    rows = {s: [irrep_character(s, ct) for ct in shapes] for s in shapes}
    sizes = [class_size(ct) for ct in shapes]
    for a in shapes:
        for b in shapes:
            total = sum(z * x * y for z, x, y in zip(sizes, rows[a], rows[b]))
            assert total == (math.factorial(10) if a == b else 0), (a, b)


def test_forward_columns_match_backward_entries_up_to_n12(backward_character):
    # Every entry of every table up to S_12 (5,929 entries at n = 12), by
    # whole columns and by single entries.
    for n in range(1, 13):
        shapes = enumerate_partitions(n)
        columns = dict(character_columns(n))
        assert sorted(columns) == sorted(shapes)
        for rho, column in columns.items():
            assert column == [backward_character(shape, rho) for shape in shapes], (n, rho)
            assert column == [irrep_character(shape, rho) for shape in shapes], (n, rho)
            assert all(type(value) is int for value in column)


def test_character_memos_are_bounded():
    assert irrep_character.cache_info().maxsize is not None


def test_staircase_character_at_n55():
    # delta_10 = (10, 9, ..., 1) at the identity: its dimension, by one walk
    # over the 58,786 shapes inside it.
    staircase = Partition(tuple(range(10, 0, -1)))
    value = irrep_character(staircase, Partition((1,) * 55))
    assert value == 44261486084874072183645699204710400
    assert value == irrep_dimension(staircase)


def test_character_walk_holds_what_it_prices():
    # Each level holds at most the shapes inside lambda; the price allows
    # 144 B an entry.
    cases = [("10,9,8,7,6", "1" + ",1" * 39), ("12,11,10,9,8,7,3", "3" + ",3" * 19),
             ("8,8,8,8,8,8", "2" + ",2" * 23)]
    for shape_text, rho_text in cases:
        shape, rho = P(shape_text), P(rho_text)
        tracemalloc.start()
        try:
            irrep_character.__wrapped__(shape, rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _shapes_inside(shape) * 144, (shape_text, peak)


# Prices every require_bytes call, then traces each walk alone: the entry
# chi^(1)((1)) and the columns of S_1, in a fresh process as the CLI runs them.
_TINY_WALKS = """
import json, tracemalloc
from snverify import characters
from snverify.symgroup import Partition

prices, checked = [], characters.require_bytes
characters.require_bytes = lambda nbytes, what: prices.append(nbytes) or checked(nbytes, what)
one = Partition((1,))

def entry():
    characters.irrep_character(one, one)

def columns():
    for _ in characters.character_columns(1):
        pass

peaks = []
for walk in (entry, columns):
    tracemalloc.start()
    walk()
    peaks.append(tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
print(json.dumps([peaks, prices]))
"""


def test_tiny_character_walks_hold_less_than_their_price():
    # Below a few kB a walk's fixed cost outweighs its 144 B an entry.
    proc = subprocess.run([sys.executable, "-c", _TINY_WALKS], capture_output=True, check=True)
    peaks, prices = json.loads(proc.stdout)
    assert len(prices) == 2
    for peak, price in zip(peaks, prices):
        assert peak <= price, (peaks, prices)


def test_shapes_inside_counts_the_partitions_below():
    for n in range(1, 9):
        shapes = enumerate_partitions(n)
        for shape in shapes:
            inside = 1 + sum(  # the empty shape, and every nonempty kappa
                len(kappa.parts) <= len(shape.parts)
                and all(a <= b for a, b in zip(kappa.parts, shape.parts))
                for k in range(1, n + 1)
                for kappa in enumerate_partitions(k)
            )
            assert _shapes_inside(shape) == inside, shape
    assert _shapes_inside(P("35,35")) == 666
    assert _shapes_inside(Partition((25,) + (1,) * 25)) == 651


def test_character_is_a_class_function():
    for shape in enumerate_partitions(4):
        rep = irrep(shape)
        for g in enumerate_group(4):
            by_class = irrep_character(shape, conjugacy_class_of(g))
            assert np.trace(rep_evaluate(rep, g)) == pytest.approx(by_class, abs=1e-10)


def test_character_orthogonality_rows():
    for n in range(2, 6):
        shapes = enumerate_partitions(n)
        size = math.factorial(n)
        for a in shapes:
            for b in shapes:
                total = sum(
                    sum(1 for g in enumerate_group(n) if conjugacy_class_of(g) == ct)
                    * irrep_character(a, ct)
                    * irrep_character(b, ct)
                    for ct in shapes
                )
                assert total / size == pytest.approx(1.0 if a == b else 0.0, abs=1e-9)


def test_derived_representation_characters():
    mu = P("2,1")
    blocked = identity_times_irrep(2, mu)
    for g in enumerate_group(3):
        np.testing.assert_allclose(
            rep_evaluate(blocked, g),
            np.kron(np.eye(2), rep_evaluate(irrep(mu), g)),
            atol=1e-12,
        )


# --------------------------------------------------- regular representations

def test_regular_representations_act_correctly():
    left, right = regular_representations(3)
    group = enumerate_group(3)
    for h in group:
        lh = rep_evaluate(left, h)
        rh = rep_evaluate(right, h)
        for col, g in enumerate(group):
            assert lh[:, col].argmax() == group.index(compose(h, g))
            assert rh[:, col].argmax() == group.index(compose(g, inverse(h)))
        # the two actions commute
        for h2 in group:
            np.testing.assert_allclose(
                lh @ rep_evaluate(right, h2), rep_evaluate(right, h2) @ lh, atol=1e-12
            )


def test_regular_character_is_group_order_at_identity_only():
    for rep in regular_representations(4):
        for g in enumerate_group(4):
            expected = 24 if g == Permutation.identity(4) else 0
            assert np.trace(rep_evaluate(rep, g)) == expected


# --------------------------------------------------------- Fourier transform

@pytest.mark.parametrize("n", [2, 3, 4])
def test_fourier_transform_is_unitary(n):
    ft = fourier_transform_matrix(n)
    size = math.factorial(n)
    np.testing.assert_allclose(ft @ ft.conj().T, np.eye(size), atol=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fourier_transform_block_diagonalizes_regular_reps(n):
    ft = fourier_transform_matrix(n)
    left, right = regular_representations(n)
    for h in enumerate_group(n):
        left_hat = ft @ rep_evaluate(left, h) @ ft.conj().T
        right_hat = ft @ rep_evaluate(right, h) @ ft.conj().T
        row = 0
        for shape in enumerate_partitions(n):
            d = irrep_dimension(shape)
            block = rep_evaluate(irrep(shape), h)
            sl = slice(row, row + d * d)
            np.testing.assert_allclose(
                left_hat[sl, sl], np.kron(block, np.eye(d)), atol=1e-10
            )
            np.testing.assert_allclose(
                right_hat[sl, sl], np.kron(np.eye(d), block.conj()), atol=1e-10
            )
            row += d * d
        # off-diagonal blocks vanish
        mask = np.ones_like(left_hat, dtype=bool)
        row = 0
        for shape in enumerate_partitions(n):
            d = irrep_dimension(shape)
            mask[row : row + d * d, row : row + d * d] = False
            row += d * d
        assert np.abs(left_hat[mask]).max() < 1e-10
        assert np.abs(right_hat[mask]).max() < 1e-10


def test_ft_row_order_matches_matrix_entries(ft_row_order):
    n = 3
    ft = fourier_transform_matrix(n)
    group = enumerate_group(n)
    size = len(group)
    for r, (shape, i, j) in enumerate(ft_row_order(n)):
        rep = irrep(shape)
        scale = math.sqrt(rep.dim / size)
        for col, g in enumerate(group):
            assert ft[r, col] == pytest.approx(scale * rep_evaluate(rep, g)[i, j], abs=1e-12)


def test_fourier_transform_respects_dense_cap(monkeypatch):
    monkeypatch.setenv("SNVERIFY_MAX_BYTES", "9000")  # below 24^2 * 16 B
    fourier_transform_matrix.cache_clear()
    try:
        with pytest.raises(ResourceLimitError):
            fourier_transform_matrix(4)
    finally:
        fourier_transform_matrix.cache_clear()
