"""Weak Fourier sampling: projector algebra, the phase-estimation Kraus
identity, seeded measurements, and the irrep sampling distribution.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from snverify import characters, entangled, wfs
from snverify.characters import lightning_distribution, multiplicities
from snverify.entangled import phi_plus, psi_lambda
from snverify.errors import InvalidArgumentError, NumericalConsistencyError
from snverify.symgroup import Partition, enumerate_partitions, enumerate_tableaux, irrep_dimension
from snverify.wfs import (
    gpe_kraus,
    isotypic_block_basis,
    kronecker_coefficient,
    measure_wfs,
    povm_ranks,
    wfs_projector,
)
from snverify.yyrep import (
    fourier_transform_matrix,
    identity_times_irrep,
    irrep,
    regular_representations,
    rep_stack,
    tensor_rep,
)

P = Partition.parse


def all_tensor_pairs(n):
    shapes = enumerate_partitions(n)
    return [(mu, nu) for mu in shapes for nu in shapes]


def povm(rep):
    """Every label's projector, in partition order."""
    return [(lam, wfs_projector(rep, lam)) for lam in enumerate_partitions(rep.n)]


# ---------------------------------------------------------------- projectors

@pytest.mark.parametrize("n", [3, 4])
def test_povm_elements_are_orthogonal_projectors_summing_to_identity(n):
    for mu, nu in all_tensor_pairs(n):
        sigma = tensor_rep(mu, nu)
        total = np.zeros((sigma.dim, sigma.dim), dtype=complex)
        mats = [p.matrix for _, p in povm(sigma)]
        for a, pa in enumerate(mats):
            np.testing.assert_allclose(pa, pa.conj().T, atol=1e-10)
            np.testing.assert_allclose(pa @ pa, pa, atol=1e-10)
            for pb in mats[a + 1 :]:
                np.testing.assert_allclose(pa @ pb, np.zeros_like(pa), atol=1e-10)
            total += pa
        np.testing.assert_allclose(total, np.eye(sigma.dim), atol=1e-10)


def test_projector_on_plain_irrep_is_identity_or_zero():
    # An irrep is its own single isotypic component.
    rep = irrep(P("2,1"))
    same = wfs_projector(rep, P("2,1"))
    np.testing.assert_allclose(same.matrix, np.eye(2), atol=1e-10)
    assert same.rank == 2
    other = wfs_projector(rep, P("3"))
    np.testing.assert_allclose(other.matrix, np.zeros((2, 2)), atol=1e-10)
    assert other.rank == 0


def test_projector_ranks_on_regular_representation():
    # The regular representation contains every irrep with multiplicity
    # equal to its dimension, so each isotypic rank is d^2.
    left, _ = regular_representations(4)
    for shape in enumerate_partitions(4):
        proj = wfs_projector(left, shape)
        assert proj.rank == irrep_dimension(shape) ** 2


def test_projector_rejects_non_integral_trace(monkeypatch):
    # The chain must be a projector of the exact rank m: (e_11 + I) / 2 has
    # trace (D + m) / 2 = 2.5, and the probe finds its rank D above m = 1.
    chain = wfs.tableau_projector
    monkeypatch.setattr(wfs, "tableau_projector",
                        lambda rep, t, rows: 0.5 * (chain(rep, t, rows) + rows))
    with pytest.raises(NumericalConsistencyError, match="chain's probe has residual .* at row 2,"):
        wfs_projector(tensor_rep(P("2,1"), P("2,1")), P("2,1"))


def test_degree_mismatch_rejected():
    with pytest.raises(InvalidArgumentError):
        wfs_projector(irrep(P("2,1")), P("3,1"))


# -------------------------------------------------------------------- Kraus

@pytest.mark.parametrize(
    "mu,nu",
    [("2,1", "2,1"), ("2,1", "1,1,1"), ("3", "3"), ("3,1", "2,2"), ("2,1,1", "2,1,1")],
)
def test_kraus_element_squares_to_projector(mu, nu):
    sigma = tensor_rep(P(mu), P(nu))
    for shape in enumerate_partitions(sigma.n):
        kraus = gpe_kraus(sigma, shape)
        xi = wfs_projector(sigma, shape)
        np.testing.assert_allclose(kraus.matrix.conj().T @ kraus.matrix, xi.matrix, atol=1e-8)


def test_kraus_element_reads_only_the_factor_stacks():
    # Its rows come from the irrep blocks: no Fourier transform, and no
    # stack of the tensor product itself, which has no images to stack.
    fourier_transform_matrix.cache_clear()
    sigma = tensor_rep(P("3,1"), P("2,1,1"))
    for shape in enumerate_partitions(4):
        gpe_kraus(sigma, shape)
    assert fourier_transform_matrix.cache_info().misses == 0


def test_kraus_channel_is_trace_preserving():
    sigma = tensor_rep(P("2,1"), P("2,1"))
    total = sum(
        gpe_kraus(sigma, shape).matrix.conj().T @ gpe_kraus(sigma, shape).matrix
        for shape in enumerate_partitions(3)
    )
    np.testing.assert_allclose(total, np.eye(sigma.dim), atol=1e-8)


# -------------------------------------------------------------- measurement

def test_measure_is_seed_deterministic():
    sigma = tensor_rep(P("2,1"), P("2,1"))
    psi = phi_plus(sigma.dim).amplitudes
    a_label, a_post = measure_wfs(sigma, psi, seed=5)
    b_label, b_post = measure_wfs(sigma, psi, seed=5)
    assert a_label == b_label
    assert a_post.tobytes() == b_post.tobytes()


def test_measure_post_state_lies_in_measured_component():
    sigma = tensor_rep(P("3,1"), P("3,1"))
    psi = phi_plus(sigma.dim).amplitudes
    for seed in range(6):
        label, post = measure_wfs(sigma, psi, seed)
        lifted = np.kron(wfs_projector(sigma, label).matrix, np.eye(sigma.dim))
        np.testing.assert_allclose(lifted @ post, post, atol=1e-10)
        assert np.linalg.norm(post) == pytest.approx(1.0, abs=1e-10)


def test_measure_on_lift_matches_dense_lifted_projectors():
    # sigma is measured on the first register of C^D x C^k, psi = vec X with
    # X of shape D x k: the register pair (k = D), sigma's own space (k = 1)
    # and a smaller second register.  The dense lifted Xi x I_k is the oracle.
    sigma = tensor_rep(P("3,1"), P("2,1,1"))
    rng = np.random.default_rng(3)
    for k in (sigma.dim, 1, 3):
        for seed in range(8):
            psi = rng.standard_normal(sigma.dim * k) + 1j * rng.standard_normal(sigma.dim * k)
            psi /= np.linalg.norm(psi)
            label, post = measure_wfs(sigma, psi, seed)
            image = np.kron(wfs_projector(sigma, label).matrix, np.eye(k)) @ psi
            np.testing.assert_allclose(post, image / np.linalg.norm(image), atol=1e-12)


def test_measure_frequencies_match_lightning_distribution():
    mu = nu = P("2,1")
    sigma = tensor_rep(mu, nu)
    psi = phi_plus(sigma.dim).amplitudes
    dist = lightning_distribution(mu, nu)
    counts = {shape: 0 for shape in dist}
    trials = 600
    for seed in range(trials):
        label, _ = measure_wfs(sigma, psi, seed)
        counts[label] += 1
    for shape, prob in dist.items():
        assert counts[shape] / trials == pytest.approx(prob, abs=0.07)


@pytest.mark.parametrize("shape", ["4", "2,2", "1,1,1,1"], ids=["first", "middle", "last"])
def test_a_state_on_one_label_draws_it_at_every_seed(shape):
    # In an irrep every other label has probability exactly 0: before the
    # drawn label in partition order, after it, or on both sides.  The draw
    # bisects the running sum to the right, so it never lands on one.
    rep = irrep(P(shape))
    psi = np.ones(rep.dim) / math.sqrt(rep.dim)
    for seed in range(200):
        assert wfs.sample_wfs(rep, psi, seed)[0] == P(shape)


def test_measure_rejects_non_unit_state():
    sigma = tensor_rep(P("2,1"), P("2,1"))
    with pytest.raises(InvalidArgumentError):
        measure_wfs(sigma, np.ones(4), seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e308])
def test_measure_rejects_a_non_finite_state(bad):
    # A NaN norm fails the unit check too, before any product or sampling,
    # and so does a norm that overflows, with no warning.
    sigma = tensor_rep(P("2,1"), P("2,1"))
    psi = phi_plus(sigma.dim).amplitudes.copy()
    psi[1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError, match="unit vector"):
            measure_wfs(sigma, psi, seed=0)


def test_measure_rejects_a_state_of_no_register_pair():
    sigma = tensor_rep(P("2,1"), P("2,1"))
    with pytest.raises(InvalidArgumentError, match="not a multiple"):
        measure_wfs(sigma, np.eye(6)[0], seed=0)


# ---------------------------------------------------------------- lightning

def test_lightning_frozen_for_two_dim_square():
    dist = lightning_distribution(P("2,1"), P("2,1"))
    assert dist[P("3")] == pytest.approx(0.25, abs=1e-12)
    assert dist[P("2,1")] == pytest.approx(0.5, abs=1e-12)
    assert dist[P("1,1,1")] == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lightning_matches_born_rule_on_max_entangled_state(n):
    for mu, nu in all_tensor_pairs(n):
        sigma = tensor_rep(mu, nu)
        dist = lightning_distribution(mu, nu)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
        for shape, prob in dist.items():
            xi = wfs_projector(sigma, shape)
            born = xi.rank / sigma.dim  # <Phi+|(Xi x I)|Phi+> = tr(Xi)/D
            assert prob == pytest.approx(born, abs=1e-9)


def test_lightning_with_sign_twist_permutes_labels():
    # Tensoring with the alternating irrep transposes each label's
    # conjugate; for n = 3 this swaps the ends and fixes the middle.
    dist = lightning_distribution(P("2,1"), P("1,1,1"))
    assert dist[P("2,1")] == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------- sums through the factors

def test_isotypic_sums_never_build_the_tensor_stack():
    mu, nu, lam = P("3,2,1"), P("4,1,1"), P("3,2,1")
    sigma = tensor_rep(mu, nu)  # D = 160
    tracemalloc.start()
    try:
        povm(sigma)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 720 * 160**2 * 8, f"peak {peak} B reaches one float64 tensor stack"
    assert kronecker_coefficient(mu, nu, lam, route="rank").value == 4
    psi_lambda(sigma, lam, phi_plus(sigma.dim).amplitudes)
    assert len(isotypic_block_basis(sigma, lam)) == 4


def test_block_builder_at_d1568_peaks_below_one_square_array():
    # 5,3 x 4,2,2; 5,3: m = 2 blocks of d = 28 columns, 0.7 MB, where the
    # chain on I_D held 5 D x D arrays of 19.7 MB each.
    sigma, lam = tensor_rep(P("5,3"), P("4,2,2")), P("5,3")
    isotypic_block_basis(sigma, lam)  # the factors' images, cached and priced apart
    tracemalloc.start()
    try:
        blocks = isotypic_block_basis(sigma, lam)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert blocks.shape == (2, 28, 1568)
    assert peak < 1568 * 1568 * 8, f"peak {peak} B"


@pytest.mark.parametrize("mu, nu, lam", [("3,2", "3,1,1", "3,1,1"), ("3", "3", "2,1")],
                         ids=["m2", "m0"])
def test_blocks_leave_the_builder_as_read_only_c_ordered_rows(mu, nu, lam):
    # One layout, B^T: m x d_lambda x D, whose reshape to m d_lambda x D is a view.
    sigma, lam = tensor_rep(P(mu), P(nu)), P(lam)
    blocks = isotypic_block_basis(sigma, lam)
    assert blocks.shape == (multiplicities(sigma)[lam], irrep_dimension(lam), sigma.dim)
    assert blocks.flags.c_contiguous and not blocks.flags.writeable


def test_sampled_blocks_are_the_builders_array(monkeypatch, haar_state):
    # No consumer of the sampled label's blocks copies them into rows.
    built, build = [], wfs.isotypic_block_basis
    monkeypatch.setattr(wfs, "isotypic_block_basis",
                        lambda *args: built.append(build(*args)) or built[-1])
    sigma = tensor_rep(P("3,2"), P("3,1,1"))
    label, blocks, _, _ = wfs.sample_wfs(sigma, haar_state(30 * 30, np.random.default_rng(0)), 1)
    assert np.shares_memory(blocks, built[enumerate_partitions(5).index(label)])


def test_factored_sums_match_the_tensor_stack_contraction_at_n6(character_vector, dense_rep):
    # The contraction against the stack of sigma's dense oracle is the oracle.
    sigma = tensor_rep(P("3,2,1"), P("5,1"))
    stack = rep_stack(dense_rep(sigma))
    for shape in enumerate_partitions(6):
        weights = irrep_dimension(shape) / len(stack) * character_vector(shape)
        oracle = np.einsum("g,gij->ij", weights, stack)
        np.testing.assert_allclose(wfs_projector(sigma, shape).matrix, oracle, rtol=0, atol=1e-12)
    lam = rep_stack(irrep(P("4,2")))
    oracle = np.einsum("kg,gij->kij", lam.shape[1] / len(lam) * lam[:, :, 0].T, stack)
    blocks = isotypic_block_basis(sigma, P("4,2"))
    units = np.einsum("aix,ay->ixy", blocks, blocks[:, 0])
    np.testing.assert_allclose(units, oracle, rtol=0, atol=1e-12)


# ------------------------------------- the Young lattice against group sums

# The tensor pairs of the benchmarked commands at n = 6, with their labels.
BENCH_N6 = {
    ("3,2,1", "5,1"): ["4,2", "3,2,1"],
    ("3,2,1", "4,1,1"): ["3,2,1"],
    ("5,1", "3,3"): ["4,2"],
}


def tensor_pairs_up_to_n5_and_bench():
    pairs = [(mu, nu) for n in range(1, 6) for mu, nu in all_tensor_pairs(n)]
    return pairs + [(P(mu), P(nu)) for mu, nu in BENCH_N6]


@pytest.mark.parametrize(
    "mu,nu", tensor_pairs_up_to_n5_and_bench(), ids=lambda shape: str(shape)
)
def test_lattice_povm_matches_the_group_sum_projectors(mu, nu, group_sum_projector):
    sigma = tensor_rep(mu, nu)
    total = np.zeros((sigma.dim, sigma.dim))
    for lam, proj in povm(sigma):
        oracle = group_sum_projector(sigma, lam)
        np.testing.assert_allclose(proj.matrix, oracle, rtol=0, atol=1e-12)
        np.testing.assert_allclose(proj.matrix @ proj.matrix, proj.matrix, rtol=0, atol=1e-12)
        assert proj.rank == kronecker_coefficient(mu, nu, lam).value * irrep_dimension(lam)
        total += proj.matrix
    np.testing.assert_allclose(total, np.eye(sigma.dim), rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "mu,nu", tensor_pairs_up_to_n5_and_bench(), ids=lambda shape: str(shape)
)
def test_povm_ranks_match_the_projector_oracle(mu, nu):
    # The ranks and completeness that wfs povm prints, summed a panel at a
    # time, are those of the labels' projectors, bit for bit.
    sigma = tensor_rep(mu, nu)
    ranks, residual = povm_ranks(sigma)
    projectors = povm(sigma)
    assert ranks == {lam: proj.rank for lam, proj in projectors}
    total = sum(proj.matrix for _, proj in projectors)
    assert residual == float(np.abs(total - np.eye(sigma.dim)).max())


@pytest.mark.parametrize(
    "mu,nu", tensor_pairs_up_to_n5_and_bench(), ids=lambda shape: str(shape)
)
def test_lattice_blocks_match_the_matrix_unit_oracle(mu, nu, matrix_units, dense_rep):
    # e_i1 = sum_a B_a[:, i] B_a[:, 0]^T, and each block intertwines the
    # generators with the irrep's.
    sigma = tensor_rep(mu, nu)
    labels = BENCH_N6.get((str(mu), str(nu)))
    for lam in [P(t) for t in labels] if labels else enumerate_partitions(sigma.n):
        blocks = isotypic_block_basis(sigma, lam)
        assert len(blocks) == kronecker_coefficient(mu, nu, lam).value
        units = np.einsum("aix,ay->ixy", blocks, blocks[:, 0])
        np.testing.assert_allclose(units, matrix_units(sigma, lam), rtol=0, atol=1e-12)
        for g, h in zip(dense_rep(sigma).generator_images, irrep(lam).generator_images):
            b = blocks.transpose(0, 2, 1)
            np.testing.assert_allclose(g @ b, b @ h, rtol=0, atol=1e-12)


DERIVED_REPS = {
    "irrep-3,1,1": lambda: irrep(P("3,1,1")),
    "I2x2,2,1": lambda: identity_times_irrep(2, P("2,2,1")),
    "left-regular-4": lambda: regular_representations(4)[0],
}


@pytest.mark.parametrize("name", list(DERIVED_REPS))
def test_lattice_on_other_kinds_matches_the_group_sum_projectors(name, group_sum_projector):
    rep = DERIVED_REPS[name]()
    for lam, proj in povm(rep):
        np.testing.assert_allclose(proj.matrix, group_sum_projector(rep, lam), rtol=0, atol=1e-12)


def test_projector_trace_is_checked_against_the_exact_multiplicity(monkeypatch):
    # The block builder checks its chain's rank on the probe against the
    # exact m of every kind's column walk.
    monkeypatch.setattr(wfs, "multiplicities",
                        lambda rep: {lam: m + 1 for lam, m in multiplicities(rep).items()})
    for rep, shape in ((tensor_rep(P("3,1"), P("2,1,1")), P("2,1,1")),
                       (identity_times_irrep(2, P("2,1,1")), P("2,1,1"))):
        with pytest.raises(NumericalConsistencyError, match="chain's probe has residual"):
            wfs_projector(rep, shape)
        with pytest.raises(NumericalConsistencyError, match="chain's probe has residual"):
            povm_ranks(rep)


@pytest.mark.parametrize("kind", ["irrep", "tensor", "identity-times-irrep", "left-regular",
                                  "right-regular"])
def test_projectors_of_every_kind_walk_the_character_columns_once(kind, monkeypatch):
    rep = {"irrep": lambda: irrep(P("2,2")),
           "tensor": lambda: tensor_rep(P("3,1"), P("2,1,1")),
           "identity-times-irrep": lambda: identity_times_irrep(2, P("2,1,1")),
           "left-regular": lambda: regular_representations(4)[0],
           "right-regular": lambda: regular_representations(4)[1]}[kind]()
    walks, columns = [], characters.character_columns
    monkeypatch.setattr(characters, "character_columns", lambda n: walks.append(n) or columns(n))
    characters._multiplicities.cache_clear()
    povm_ranks(rep)
    for shape in enumerate_partitions(4):
        wfs_projector(rep, shape)
    assert walks == [4]


@pytest.mark.parametrize(
    "step", ["tableau", "blocks", "projector", "povm-ranks", "measure", "psi-lambda"])
def test_lattice_steps_hold_what_they_price(step, monkeypatch, haar_state):
    # D = 144, n = 6: the block builder holds at most 5 copies of its m x D x
    # d blocks, after its chain held at most 5 of its m + 1 probe rows, and
    # then, with m > 0, 5 of its m seeds; a projector holds itself beside the
    # blocks and their copy.  The POVM's ranks hold the sum of the projectors
    # beside the widest label's blocks, their copy and a panel of rows,
    # measure and psi-lambda their products with a Haar state on
    # C^D x C^D.  The factors' images are cached and priced apart, so they
    # are built untraced.
    mu, nu, lam = P("4,2"), P("3,2,1"), P("3,2,1")
    sigma, dim = tensor_rep(mu, nu), 144
    first = enumerate_tableaux(lam)[0]
    psi = haar_state(dim * dim, np.random.default_rng(0))
    probe = np.random.default_rng(1).standard_normal((4, dim))
    m = multiplicities(sigma)

    def builder(shape):  # the blocks' price, then their chains'
        chains = [5 * (m[shape] + 1) * dim] + [5 * m[shape] * dim] * (m[shape] > 0)
        return [5 * m[shape] * dim * irrep_dimension(shape)] + chains

    labels = [k for shape in enumerate_partitions(6) for k in builder(shape)]
    calls = {
        "tableau": (lambda: wfs.tableau_projector(sigma, first, probe), [5 * 4 * dim]),
        "blocks": (lambda: isotypic_block_basis(sigma, lam), builder(lam)),
        # m d_lam = 3 x 16 columns of blocks.
        "projector": (lambda: wfs_projector(sigma, lam), builder(lam) + [(dim + 2 * 48) * dim]),
        # 3,2,1 is the widest label.
        "povm-ranks": (lambda: povm_ranks(sigma),
                       [(dim + max(5 * 48, 2 * 48 + wfs.PANEL)) * dim] + labels),
        "measure": (lambda: measure_wfs(sigma, psi, 1), [7 * dim * dim] + labels),
        "psi-lambda": (lambda: psi_lambda(sigma, lam, psi),
                       builder(lam) + [(5 * dim + 4 * 48) * dim]),
    }
    call, floats = calls[step]
    call()
    prices = []
    for module in (wfs, entangled):
        checked = module.require_bytes
        monkeypatch.setattr(module, "require_bytes", lambda nbytes, what, checked=checked:
                            prices.append(nbytes) or checked(nbytes, what))
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    square = dim * dim * 8
    assert prices == [8 * k for k in floats]
    # Python's own objects add a few kB beside the arrays.
    assert max(prices) - 2 * square < peak < max(prices) + 8192, f"peak {peak} B"


@pytest.mark.parametrize("mu, nu, widest", [("4,3", "4,2,1", 140), ("4,2,1", "4,2,1", 315)],
                         ids=["d490", "d1225"])
def test_measurement_of_a_state_on_c_d_holds_what_it_prices(mu, nu, widest, monkeypatch,
                                                            haar_state):
    # A state on C^D (k = 1): the stacked rows of every label, at most D^2
    # floats, beside the next label's builder, 5 m d D floats for the widest
    # label, outprice the stacking's 2 D^2 + 4 D; the stacking holds the
    # peak, the rows twice and a few kB of each label's Python objects
    # (2.016 and 2.004 D^2 by tracemalloc).
    sigma = tensor_rep(P(mu), P(nu))
    dim = sigma.dim
    psi = haar_state(dim, np.random.default_rng(0))
    wfs.sample_wfs(sigma, psi, 1)  # the factors' images, cached and priced apart
    prices, checked = [], wfs.require_bytes

    def spy(nbytes, what):
        checked(nbytes, what)
        if what.startswith("the measurement"):
            prices.append(nbytes)

    monkeypatch.setattr(wfs, "require_bytes", spy)
    tracemalloc.start()
    try:
        wfs.sample_wfs(sigma, psi, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert prices == [(dim + 5 * widest) * dim * 8]
    assert peak <= prices[0] < 1.25 * peak, (peak, prices)
