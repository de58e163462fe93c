"""The internal-state test, the acceptance operator of the two-step
verifier, and Monte-Carlo certification of the robustness bounds.
"""

import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from snverify import verifier, wfs, yyrep
from snverify.characters import multiplicities
from snverify.entangled import max_entangled_over_range, phi_plus, unvec, vec
from snverify.errors import InvalidArgumentError, NumericalConsistencyError, ResourceLimitError
from snverify.symgroup import (
    Partition,
    Permutation,
    enumerate_group,
    enumerate_partitions,
    irrep_dimension,
)
from snverify.verifier import (
    acceptance_levels,
    certify_corollary_bound,
    certify_lemma_bound,
    channel_E,
    internal_test_probability,
    run_verifier_sampled,
    verification_acceptance_operator,
)
from snverify.wfs import measure_wfs, norm_sq, wfs_projector
from snverify.yyrep import (
    identity_times_irrep,
    irrep,
    regular_representations,
    rep_evaluate,
    tensor_rep,
    transposition_images,
)

P = Partition.parse
DATA = Path(__file__).parent / "data"


# ------------------------------------------------------------ group average

def test_channel_is_idempotent_self_adjoint_projection(dense_rep):
    sigma = tensor_rep(P("2,1"), P("2,1"))
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        y = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        ex = channel_E(sigma, x)
        np.testing.assert_allclose(channel_E(sigma, ex), ex, atol=1e-9)
        # self-adjointness in the Frobenius inner product
        lhs = np.trace(ex.conj().T @ y)
        rhs = np.trace(x.conj().T @ channel_E(sigma, y))
        assert lhs == pytest.approx(rhs, abs=1e-9)
        # output commutes with the whole representation
        for g in enumerate_group(3):
            m = rep_evaluate(dense_rep(sigma), g)
            np.testing.assert_allclose(m @ ex, ex @ m, atol=1e-9)


TOWER_REPS = {
    "irrep-3,1,1": lambda: irrep(P("3,1,1")),
    "tensor-3,2x3,1,1": lambda: tensor_rep(P("3,2"), P("3,1,1")),
    "I2x2,2,1": lambda: identity_times_irrep(2, P("2,2,1")),
    "left-regular-4": lambda: regular_representations(4)[0],
    "right-regular-4": lambda: regular_representations(4)[1],
}


@pytest.mark.parametrize("name", list(TOWER_REPS))
def test_coset_tower_matches_the_stack_average(name, stack_average):
    rep = TOWER_REPS[name]()
    rng = np.random.default_rng(6)
    for _ in range(3):
        x = rng.standard_normal((rep.dim, rep.dim)) + 1j * rng.standard_normal((rep.dim, rep.dim))
        np.testing.assert_allclose(channel_E(rep, x), stack_average(rep, x), rtol=0, atol=1e-12)


def test_transposition_images_are_the_transpositions():
    rep = irrep(P("3,2"))
    images = transposition_images(rep)
    assert images.shape == (10, 5, 5) and not images.flags.writeable
    assert transposition_images(rep) is images
    k = 0
    for high in range(2, 6):
        for low in range(1, high):
            t = Permutation.identity(5).images
            t = tuple(high if v == low else low if v == high else v for v in t)
            np.testing.assert_allclose(images[k], rep_evaluate(rep, Permutation(t)), atol=1e-12)
            k += 1


def test_coset_tower_at_d144_is_a_projection_onto_the_commutant(dense_rep):
    sigma = tensor_rep(P("4,2"), P("3,2,1"))
    rng = np.random.default_rng(8)
    x = rng.standard_normal((144, 144)) + 1j * rng.standard_normal((144, 144))
    ex = channel_E(sigma, x)
    np.testing.assert_allclose(channel_E(sigma, ex), ex, rtol=0, atol=1e-12)
    for g in dense_rep(sigma).generator_images:
        np.testing.assert_allclose(g @ ex, ex @ g, rtol=0, atol=1e-12)


def test_certification_builds_no_block_and_no_chain(monkeypatch):
    # A trial draws its three level weights, Haar or perturbed: neither the
    # irrep blocks, nor a probe chain, nor Xi is built.
    def refuse(*args):
        raise AssertionError("certification built a block, a chain or Xi")

    for module in (verifier, wfs):
        monkeypatch.setattr(module, "isotypic_block_basis", refuse)
    for name in ("tableau_projector", "wfs_projector"):
        monkeypatch.setattr(wfs, name, refuse)
    for perturbation in (None, 0.1):
        trials = certify_corollary_bound(P("3,2"), P("3,1,1"), P("3,1,1"), trials=2, seed=0,
                                         perturbation=perturbation)
        assert all(t.corollary.bound_satisfied and t.theorem.bound_satisfied for t in trials)
        reports = certify_lemma_bound(P("3,2"), 2, trials=2, seed=0, perturbation=perturbation)
        assert all(r.bound_satisfied for r in reports)


@pytest.mark.parametrize("lam", ["2,1", "2,2"], ids=["m0", "other-degree"])
def test_certification_rejects_an_absent_label_before_any_block(lam, monkeypatch):
    # (3) x (3) holds only (3): m = 0 is read from the characters, so neither
    # the blocks nor a probe chain is built.
    def refuse(*args):
        raise AssertionError("a block or a chain was built")

    monkeypatch.setattr(verifier, "isotypic_block_basis", refuse)
    monkeypatch.setattr(wfs, "tableau_projector", refuse)
    with pytest.raises(InvalidArgumentError, match="Kronecker coefficient 0"):
        certify_corollary_bound(P("3"), P("3"), P(lam), trials=1, seed=0)


def test_certification_builds_no_stack_but_the_summed_irreps(monkeypatch):
    # Neither reads a stack: the internal test is read from the irrep blocks
    # or the block traces, and the blocks come from the Young lattice.
    def guarded(rep):
        raise AssertionError(f"certification built the stack of a {rep.kind} rep")

    monkeypatch.setattr(yyrep, "rep_stack", guarded)
    monkeypatch.setattr(verifier, "rep_stack", guarded, raising=False)
    reports = certify_lemma_bound(P("3,2"), 2, trials=5, seed=0)
    assert all(r.bound_satisfied for r in reports)
    trials = certify_corollary_bound(P("3,2"), P("3,1,1"), P("3,1,1"), trials=5, seed=0)
    assert all(t.corollary.bound_satisfied and t.theorem.bound_satisfied for t in trials)


def test_commutant_projector_vectorizes_the_channel(commutant_oracle):
    sigma = tensor_rep(P("2,1"), P("2,1"))
    w = commutant_oracle(sigma)
    np.testing.assert_allclose(w, w.conj().T, atol=1e-10)
    np.testing.assert_allclose(w @ w, w, atol=1e-10)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    np.testing.assert_allclose(w @ vec(x), vec(channel_E(sigma, x)), atol=1e-9)


def test_commutant_dimension_is_sum_of_squared_multiplicities(commutant_oracle):
    # sigma = (2,1) x (2,1) decomposes with multiplicity one on each of the
    # three labels, so the commutant has dimension 3.
    sigma = tensor_rep(P("2,1"), P("2,1"))
    w = commutant_oracle(sigma)
    assert np.trace(w).real == pytest.approx(3.0, abs=1e-9)


# ------------------------------------------------------------- internal test

def test_internal_test_accepts_commuting_state_exactly():
    sigma = tensor_rep(P("2,1"), P("2,1"))
    formula, circuit = internal_test_probability(sigma, phi_plus(4).amplitudes)
    assert formula == pytest.approx(1.0, abs=1e-10)
    assert circuit == pytest.approx(1.0, abs=1e-10)


def test_internal_test_half_on_traceless_orthogonal_state():
    # vec X with E(X) = 0 gives overlap 0, so both forms are exactly 1/2.
    sigma = identity_times_irrep(1, P("2,1"))
    x = np.array([[1.0, 0.0], [0.0, -1.0]]) / math.sqrt(2)  # traceless
    formula, circuit = internal_test_probability(sigma, vec(x))
    assert formula == pytest.approx(0.5, abs=1e-10)
    assert circuit == pytest.approx(0.5, abs=1e-10)


def test_internal_test_formula_and_circuit_relation(haar_state):
    # Both are 1/2 + Re<X,E(X)>/2 on random states, though the formula sums
    # over the coset tower and the circuit walks the coset tree element by
    # element.
    sigma = tensor_rep(P("2,1"), P("2,1"))
    for seed in range(10):
        psi = haar_state(16, np.random.default_rng(seed))
        formula, circuit = internal_test_probability(sigma, psi)
        assert abs(formula - circuit) <= 1e-12
        assert circuit >= 0.5 - 1e-12


def test_circuit_walk_is_priced_before_it_allocates(monkeypatch):
    # D = 30: the walk is priced at 100,800 B, 14 D x D arrays.  No command
    # walks the tree, so it is called here directly.
    sigma = tensor_rep(P("3,2"), P("3,1,1"))
    turns = []
    monkeypatch.setattr(verifier, "turn", lambda *args: turns.append(args))
    monkeypatch.setenv("SNVERIFY_MAX_BYTES", "100799")
    with pytest.raises(ResourceLimitError) as raised:
        verifier._circuit_value(sigma, np.eye(30, dtype=complex))
    assert str(raised.value).startswith("the coset-tree walk of S_5 at D = 30: 100800 B")
    assert turns == []


def test_circuit_walk_holds_what_it_prices():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    sigma = tensor_rep(P("3,2"), P("3,1,1"))
    verifier._circuit_value(sigma, x)  # the factors' images, cached and priced apart
    tracemalloc.start()
    try:
        verifier._circuit_value(sigma, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    priced = (2 * 5 + 4) * 30 * 30 * 8
    # Python's own objects add a few kB beside the arrays.
    assert priced - 8192 < peak < priced + 8192, f"peak {peak} B, priced {priced} B"


@pytest.mark.parametrize("step", ["average", "walk"])
def test_a_dense_rep_is_priced_with_its_transposition_images(step, monkeypatch):
    # I_2 x rho^(4,2,1), D = 70, a dense kind: turn reads its
    # 21 dense images (823,200 B), made on the first turn and held with the
    # working arrays, 12 D x D for the average and 2n + 4 for the walk.
    rep = identity_times_irrep(2, P("4,2,1"))
    rng = np.random.default_rng(2)
    x = rng.standard_normal((70, 70)) + 1j * rng.standard_normal((70, 70))
    prices, checked = [], verifier.require_bytes
    monkeypatch.setattr(verifier, "require_bytes",
                        lambda nbytes, what: prices.append(nbytes) or checked(nbytes, what))
    call = verifier.channel_E if step == "average" else verifier._circuit_value
    tracemalloc.start()
    try:
        call(rep, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arrays = 12 if step == "average" else 2 * 7 + 4
    assert prices == [(21 + arrays) * 70 * 70 * 8]
    # The average's price also counts the complex input, made before it runs.
    assert prices[0] - 5 * 70 * 70 * 8 < peak < prices[0] + 8192, f"peak {peak} B"


# ------------------------------------------------------- acceptance operator

def spectrum_of(op) -> np.ndarray:
    """The operator's D^2 eigenvalues, descending, expanded from its levels."""
    values, counts = zip(*op.levels)
    return np.repeat(values, counts)


def test_acceptance_spectrum_for_multiplicity_one_instance():
    op = verification_acceptance_operator(P("2,1"), P("2,1"), P("2,1"))
    assert op.c == 1.0
    assert op.s == pytest.approx(0.5, abs=1e-9)
    assert op.s <= 8.0 / 9.0
    spectrum = spectrum_of(op)
    np.testing.assert_allclose(spectrum[:1], [1.0], atol=1e-9)
    np.testing.assert_allclose(spectrum[1:8], [0.5] * 7, atol=1e-9)
    np.testing.assert_allclose(spectrum[8:], [0.0] * 8, atol=1e-9)


def test_accepting_eigenvector_is_entangled_isotypic_state(accepting_oracle):
    accepting = accepting_oracle(P("2,1"), P("2,1"), P("2,1"))
    assert accepting.shape[1] == 1
    xi = wfs_projector(tensor_rep(P("2,1"), P("2,1")), P("2,1"))
    witness = vec(np.asarray(xi.matrix)) / math.sqrt(xi.rank)
    overlap = abs(np.vdot(accepting[:, 0], witness))
    assert overlap == pytest.approx(1.0, abs=1e-8)


def test_acceptance_operator_for_zero_multiplicity_label(accepting_oracle):
    # (3) x (3) is trivial; the (2,1) component is empty, so the operator
    # vanishes and there is no eigenvalue 1.
    op = verification_acceptance_operator(P("3"), P("3"), P("2,1"))
    assert np.abs(spectrum_of(op)).max() < 1e-9
    assert op.s == 0.0
    assert op.blocks.shape == (0, 2, 1)
    assert accepting_oracle(P("3"), P("3"), P("2,1")).shape == (1, 0)


def test_acceptance_operator_n4_instance():
    op = verification_acceptance_operator(P("3,1"), P("3,1"), P("3,1"))
    spectrum = spectrum_of(op)
    assert np.sum(spectrum > 1 - 1e-8) == 1  # m = 1 -> multiplicity m^2 = 1
    assert op.s <= 8.0 / 9.0
    interior = spectrum[(spectrum > op.s + 1e-8) & (spectrum < 1 - 1e-8)]
    assert interior.size == 0


def dense_acceptance_operator(mu, nu, lam, w) -> np.ndarray:
    """The D^2 x D^2 matrix Gamma (I + W)/2 Gamma, Gamma = Xi tensor I,
    built densely from the commutant oracle W: the oracle for the
    closed-form operator."""
    sigma = tensor_rep(mu, nu)
    d = sigma.dim
    gamma = np.kron(wfs_projector(sigma, lam).matrix, np.eye(d))
    t = (np.eye(d * d) + w) / 2
    a = gamma @ t @ gamma
    return (a + a.conj().T) / 2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closed_form_operator_matches_dense_oracle(n, commutant_oracle, accepting_oracle):
    shapes = enumerate_partitions(n)
    for mu in shapes:
        for nu in shapes:
            w = commutant_oracle(tensor_rep(mu, nu))
            for lam in shapes:
                op = verification_acceptance_operator(mu, nu, lam)
                evals, evecs = np.linalg.eigh(dense_acceptance_operator(mu, nu, lam, w))
                np.testing.assert_allclose(evals[::-1], spectrum_of(op), atol=1e-10)
                ones = evecs[:, evals > 1.0 - 1e-8]
                accepting = accepting_oracle(mu, nu, lam)
                np.testing.assert_allclose(
                    ones @ ones.conj().T, accepting @ accepting.conj().T, atol=1e-10
                )
                assert op.c == 1.0
                assert op.s <= 8.0 / 9.0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closed_form_distance_matches_the_dense_basis(n, accepting_oracle, span_distance,
                                                     haar_state):
    # Seeded states and, where m > 0, the witness vec(Xi)/sqrt(m d_lam).
    # With m = 0 there is no accepting state and the distance is ||psi||.
    # Certification reads a post-sampling state's distance off psi's split.
    rng = np.random.default_rng(n)
    shapes = enumerate_partitions(n)
    for mu in shapes:
        for nu in shapes:
            d = tensor_rep(mu, nu).dim
            states = [haar_state(d * d, rng) for _ in range(3)]
            for lam in shapes:
                op = verification_acceptance_operator(mu, nu, lam)
                oracle = accepting_oracle(mu, nu, lam)
                m = oracle.shape[1]
                witnesses = []
                if m:
                    xi = wfs_projector(tensor_rep(mu, nu), lam)
                    witnesses = [vec(np.asarray(xi.matrix)) / math.sqrt(xi.rank)]
                for psi in states + [2.0 * states[0]] + witnesses:
                    assert op.distance_to(psi) == pytest.approx(span_distance(oracle, psi),
                                                                rel=1e-14, abs=1e-14)
                for psi in witnesses:
                    assert op.distance_to(psi) < 1e-14
                for psi in states[:1] if m else []:
                    projected, _, inner, _ = op._split(unvec(psi, d))
                    post = vec(projected) / math.sqrt(norm_sq(projected))
                    assert math.sqrt(inner / norm_sq(projected)) == pytest.approx(
                        span_distance(oracle, post), rel=1e-14, abs=1e-14)
                if not m:
                    for psi in states:
                        assert op.distance_to(psi) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("corrupt", ["drop-block", "foreign-block", "scaled-block"])
def test_closed_form_operator_checks_its_blocks(corrupt, monkeypatch):
    # m = 1: the block builder checks the blocks it seeds from its chain's
    # image of the probe rows.
    chain = wfs.tableau_projector

    def corrupted(rep, tableau, rows):
        image = chain(rep, tableau, rows)
        if corrupt == "drop-block":  # rank 0, not m
            return 0 * image
        if corrupt == "scaled-block":  # e_11 tilted by 1e-7: rank 1, but B^T B != I
            e11 = chain(rep, tableau, np.eye(rep.dim))
            k = np.random.default_rng(0).standard_normal((rep.dim, rep.dim))
            tilt = np.eye(rep.dim) + 1e-7 * (k - k.T)
            return rows @ tilt @ e11 @ tilt.T
        # a unit seed outside the isotypic component
        v = np.random.default_rng(0).standard_normal(rep.dim)
        return rows @ np.outer(v, v) / (v @ v)

    monkeypatch.setattr(wfs, "tableau_projector", corrupted)
    with pytest.raises(NumericalConsistencyError):
        verification_acceptance_operator(P("2,1"), P("2,1"), P("2,1"))


def test_structured_verifier_stays_below_one_dense_operator_in_memory():
    mu, nu, lam = P("3,2"), P("3,1,1"), P("3,1,1")
    d = tensor_rep(mu, nu).dim
    dense_bytes = (d * d) ** 2 * 16  # one D^2 x D^2 complex array, ~13 MB
    xi = wfs_projector(tensor_rep(mu, nu), lam)
    witness = vec(np.asarray(xi.matrix)) / math.sqrt(xi.rank)  # always samples lam
    runs = {
        "certify_corollary_bound": lambda: certify_corollary_bound(mu, nu, lam, trials=3, seed=0),
        "run_verifier_sampled": lambda: run_verifier_sampled(mu, nu, lam, witness, seed=0),
    }
    for name, call in runs.items():
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes, f"{name}: peak {peak} B"


# ---------------------------------------------------------------- Lemma bound

def test_lemma_trivial_product_state_has_zero_epsilon():
    # perturbation 0 keeps the trial at the maximally entangled center,
    # which lies in the product target subspace
    reports = certify_lemma_bound(P("2,1"), 2, trials=3, seed=0, perturbation=0.0)
    for r in reports:
        assert r.epsilon == pytest.approx(0.0, abs=1e-10)
        assert r.distance_to_target == pytest.approx(0.0, abs=1e-8)
        assert r.bound_satisfied


def test_lemma_bound_haar_trials():
    for m in (1, 2):
        reports = certify_lemma_bound(P("2,1"), m, trials=100, seed=0)
        assert all(r.bound_satisfied for r in reports)


def test_lemma_bound_perturbed_trials():
    reports = certify_lemma_bound(P("2,1"), 2, trials=100, seed=1, perturbation=0.1)
    assert all(r.bound_satisfied for r in reports)
    # perturbed states stay close: distances and epsilons are small
    assert max(r.epsilon for r in reports) < 0.5


def test_lemma_rejects_a_multiplicity_below_one():
    for m in (0, -1):
        with pytest.raises(InvalidArgumentError, match=f"multiplicity must be positive, got {m}"):
            certify_lemma_bound(P("2,1"), m, trials=1, seed=0)


def test_lemma_distance_matches_the_product_target_oracle(
    product_target_oracle, span_distance, level_state, lemma_blocks, drawn, monkeypatch
):
    # Haar and perturbed trials, each against the state built from its drawn
    # weights, and a block state vec(A x I_d1)/sqrt(d1) of the target
    # itself, at distance 0.
    for m, shape in ((1, P("2,1")), (2, P("3,2")), (3, P("2,1"))):
        d1 = irrep_dimension(shape)
        oracle = product_target_oracle(m, d1)
        for perturbation in (None, 0.1):
            drawn.clear()
            reports = certify_lemma_bound(shape, m, trials=4, seed=5, perturbation=perturbation)
            for t, (report, weights) in enumerate(zip(reports, drawn, strict=True)):
                psi = level_state(lemma_blocks(m, d1), weights, 5 + t)
                assert report.distance_to_target == pytest.approx(
                    span_distance(oracle, psi), rel=1e-14, abs=1e-15)
        a = np.arange(1.0, m * m + 1).reshape(m, m)
        block = vec(np.kron(a / np.linalg.norm(a), np.eye(d1) / math.sqrt(d1)))
        with monkeypatch.context() as patched:
            patched.setattr(verifier, "_trial_weights", lambda *args: (1.0, 0.0, 0.0))
            (report,) = certify_lemma_bound(shape, m, trials=1, seed=0)
        assert span_distance(oracle, block) < 1e-15
        assert report.distance_to_target < 1e-15


# ------------------------------------------------------------ Corollary bound

def test_corollary_bound_haar_trials_s3():
    trials = certify_corollary_bound(P("2,1"), P("2,1"), P("2,1"), trials=100, seed=0)
    assert all(t.corollary.bound_satisfied for t in trials)
    assert all(t.theorem.bound_satisfied for t in trials)


def test_corollary_bound_perturbed_trials():
    trials = certify_corollary_bound(
        P("2,1"), P("2,1"), P("2,1"), trials=100, seed=3, perturbation=0.1
    )
    assert all(t.corollary.bound_satisfied for t in trials)
    assert all(t.theorem.bound_satisfied for t in trials)
    assert max(t.corollary.epsilon for t in trials) < 0.5


def test_corollary_trivial_accepting_state():
    trials = certify_corollary_bound(
        P("2,1"), P("2,1"), P("2,1"), trials=2, seed=0, perturbation=0.0
    )
    for t in trials:
        assert t.corollary.epsilon == pytest.approx(0.0, abs=1e-9)
        assert t.corollary.distance_to_target == pytest.approx(0.0, abs=1e-7)


def test_corollary_rejects_zero_multiplicity():
    with pytest.raises(InvalidArgumentError):
        certify_corollary_bound(P("3"), P("3"), P("2,1"), trials=1, seed=0)


def test_reports_are_seed_deterministic():
    a = certify_corollary_bound(P("2,1"), P("2,1"), P("2,1"), trials=5, seed=9)
    b = certify_corollary_bound(P("2,1"), P("2,1"), P("2,1"), trials=5, seed=9)
    assert [t.corollary for t in a] == [t.corollary for t in b]
    assert [t.theorem for t in a] == [t.theorem for t in b]


# ------------------------------------------------- closed-form internal test

def _nonzero_triples(n_max: int):
    for n in range(1, n_max + 1):
        shapes = enumerate_partitions(n)
        for mu in shapes:
            for nu in shapes:
                counts = multiplicities(tensor_rep(mu, nu))
                yield from ((mu, nu, lam) for lam in shapes if counts[lam])


@pytest.mark.parametrize(
    "mu, nu, lam", [*_nonzero_triples(5), (P("4,3"), P("4,2,1"), P("4,2,1"))], ids=str)
def test_corollary_internal_test_matches_the_coset_tower_formula(mu, nu, lam, level_state,
                                                                drawn):
    # The theorem report's acceptance, read from the level weights, against
    # 1/2 + 1/2 Re<X', E(X')> with E through the coset tower, on the
    # post-sampling state X' of the state built from each seeded Haar and
    # perturbed trial's weights.
    sigma = tensor_rep(mu, nu)
    d = sigma.dim
    op = verification_acceptance_operator(mu, nu, lam)
    for perturbation in (None, 0.1):
        drawn.clear()
        trials = certify_corollary_bound(mu, nu, lam, trials=2, seed=3, perturbation=perturbation)
        for t, (trial, weights) in enumerate(zip(trials, drawn, strict=True)):
            psi = level_state(op.blocks, weights, 3 + t)
            projected = op._split(unvec(psi, d))[0]
            p_sample = norm_sq(projected)
            formula = verifier._formula_value(sigma, projected / math.sqrt(p_sample))
            assert not trial.degenerate
            assert abs(trial.theorem.acceptance_probability - formula) <= 1e-12
            assert abs(trial.corollary.acceptance_probability - p_sample * formula) <= 1e-12


@pytest.mark.parametrize("m, shape", [(2, "2,1"), (2, "3,2"), (30, "3,1,1"), (3, "4,2,1")])
def test_lemma_internal_test_matches_the_coset_tower_formula(m, shape, level_state, lemma_blocks,
                                                            drawn):
    # 1/2 + 1/2 w1 from the drawn weights against the coset tower's
    # 1/2 + 1/2 <X, E(X)> on the state built from them.
    rep = identity_times_irrep(m, P(shape))
    d, d1 = rep.dim, irrep_dimension(P(shape))
    for perturbation in (None, 0.1):
        drawn.clear()
        reports = certify_lemma_bound(P(shape), m, trials=3, seed=4, perturbation=perturbation)
        for t, (report, weights) in enumerate(zip(reports, drawn, strict=True)):
            psi = level_state(lemma_blocks(m, d1), weights, 4 + t)
            formula = verifier._formula_value(rep, unvec(psi, d))
            assert abs(report.acceptance_probability - formula) <= 1e-12


def _dense_acceptance(rep, xi: np.ndarray) -> np.ndarray:
    """Gamma (I + W) Gamma / 2 on C^D x C^D, Gamma = Xi x I and W the channel
    E as a matrix, one column vec E(e_ij) per matrix unit: for small D only."""
    d = rep.dim
    w = np.column_stack([vec(channel_E(rep, unit)) for unit in np.eye(d * d).reshape(-1, d, d)])
    gamma = np.kron(xi, np.eye(d))
    return gamma @ (np.eye(d * d) + w) @ gamma / 2


@pytest.mark.parametrize("case", ["lemma-d4", "lemma-d6", "corollary-d4", "corollary-d6",
                                  "corollary-d30"])
def test_certified_acceptance_is_the_verifiers_own(case, level_state, drawn):
    # Each report's acceptance against the verifier it certifies, on the state
    # built from the trial's drawn weights: <psi|A|psi> for the dense
    # acceptance operator at D <= 6, on its eigenspaces, and p times the
    # circuit's walk on the post-sampling state at D = 30, on the blocks'.  Then distance^2 <= 2 eps, within both
    # bounds: equal for the lemma and the theorem, with the weight on A's
    # eigenvalue 0 between them for the corollary.
    kind, d = case.split("-d")
    if kind == "lemma":
        m, shape = {"4": (2, P("2,1")), "6": (3, P("2,1"))}[d]
        rep = identity_times_irrep(m, shape)
        dense = _dense_acceptance(rep, np.eye(rep.dim))
    else:
        mu, nu, lam = (P(t) for t in {"4": ("2,1", "2,1", "2,1"), "6": ("3,1", "2,2", "3,1"),
                                      "30": ("3,2", "3,1,1", "3,1,1")}[d])
        rep, op = tensor_rep(mu, nu), verification_acceptance_operator(mu, nu, lam)
        dense = None if d == "30" else _dense_acceptance(rep, wfs_projector(rep, lam).matrix)
    for perturbation in (None, 0.3, 0.03):
        drawn.clear()
        if kind == "lemma":
            reports = equal = certify_lemma_bound(shape, m, 3, 2, perturbation)
        else:
            trials = certify_corollary_bound(mu, nu, lam, 3, 2, perturbation)
            reports, equal = [t.corollary for t in trials], [t.theorem for t in trials]
        for t, (report, weights) in enumerate(zip(reports, drawn, strict=True)):
            psi = level_state(op.blocks if dense is None else dense, weights, 2 + t)
            if dense is not None:
                expected = float(np.vdot(psi, dense @ psi).real)
            else:
                projected = op._split(unvec(psi, rep.dim))[0]
                p_sample = norm_sq(projected)
                expected = p_sample * verifier._circuit_value(rep, projected / math.sqrt(p_sample))
            assert abs(report.acceptance_probability - expected) <= 1e-12
            assert report.distance_to_target**2 <= 2 * report.epsilon + 1e-12
        for report in equal:
            assert report.distance_to_target**2 == pytest.approx(2 * report.epsilon, abs=1e-12)


def test_certification_takes_no_group_average(monkeypatch):
    # Neither certify function reaches channel_E, its price or a turn of
    # the coset tower: the internal test is read from the irrep blocks.
    def no_average(*args):
        raise AssertionError("certification averaged over the group")

    for name in ("channel_E", "_require_average", "turn"):
        monkeypatch.setattr(verifier, name, no_average)
    for perturbation in (None, 0.1):
        reports = certify_lemma_bound(P("3,2"), 2, trials=3, seed=0, perturbation=perturbation)
        assert all(r.bound_satisfied for r in reports)
        trials = certify_corollary_bound(P("3,2"), P("3,1,1"), P("3,1,1"), trials=3, seed=0,
                                         perturbation=perturbation)
        assert all(t.corollary.bound_satisfied and t.theorem.bound_satisfied for t in trials)


TRIAL_CASES = {
    "corollary-d30": lambda p: certify_corollary_bound(P("3,2"), P("3,1,1"), P("3,1,1"), 3, 0, p),
    "corollary-d40500": lambda p: certify_corollary_bound(P("6,4"), P("5,3,2"), P("4,3,2,1"), 3, 0,
                                                          p),
    "corollary-d490": lambda p: certify_corollary_bound(P("4,3"), P("4,2,1"), P("4,2,1"), 3, 0, p),
    "corollary-d35-whole": lambda p: certify_corollary_bound(P("7"), P("4,2,1"), P("4,2,1"), 3, 0, p),
    "lemma-d180": lambda p: certify_lemma_bound(P("3,1,1"), 30, 3, 0, p),
    "lemma-d105": lambda p: certify_lemma_bound(P("4,2,1"), 3, 3, 0, p),
}
# Beside the reports, a trial holds its generator and a few floats; the
# generator, a random.Random, takes about 3.2 kB (tracemalloc), at any D.
TRIAL_FIXED_BYTES = 8192


@pytest.mark.parametrize("perturbation", [None, 0.1], ids=["haar", "perturbed"])
@pytest.mark.parametrize("case", list(TRIAL_CASES))
def test_certification_trials_hold_what_they_price(case, perturbation, monkeypatch):
    # From the reports' price on, with the characters cached: three trials
    # hold their reports and one fixed bound beside them, the same from D =
    # 30 to 40,500 (n = 10, m d_lambda D = 1.2 10^8).  corollary-d35-whole
    # has m d_lambda = D, so no level 0.
    call = TRIAL_CASES[case]
    call(perturbation)  # the characters' multiplicities, cached and priced apart
    priced, checked = [], verifier.require_bytes

    def spy(nbytes, what):
        checked(nbytes, what)
        priced.append((nbytes, tracemalloc.get_traced_memory()[0]))
        tracemalloc.reset_peak()

    monkeypatch.setattr(verifier, "require_bytes", spy)
    tracemalloc.start()
    try:
        call(perturbation)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ((price, held),) = priced
    assert price == (2 if case.startswith("corollary") else 1) * 3 * verifier.REPORT_BYTES
    assert peak - held <= price + TRIAL_FIXED_BYTES, (peak - held, price)


@pytest.mark.parametrize("case", ["corollary-d30", "lemma-d10"])
def test_sampled_weight_has_its_beta_mean(case, drawn):
    # A Haar trial's weight on the target's side (p = w1 + w_half for the
    # corollary, a = w1 for the lemma) is Beta(k, K - k) for k of the K
    # complex coordinates of the state: mean k/K.  Over 2,000 seeds the sample mean
    # lies within 4 sigma of it.
    if case == "corollary-d30":
        certify_corollary_bound(P("3,2"), P("3,1,1"), P("3,1,1"), trials=2000, seed=0)
        k, total = 12 * 30, 30 * 30
    else:
        certify_lemma_bound(P("3,2"), 2, trials=2000, seed=0)
        k, total = 2 * 2, 10 * 10
    side = 2 if case == "corollary-d30" else 1  # p = w1 + w_half, a = w1
    weights = np.array([sum(w[:side]) for w in drawn])
    assert len(weights) == 2000
    sigma = math.sqrt(k * (total - k) / (total**2 * (total + 1)) / len(weights))
    assert abs(weights.mean() - k / total) <= 4 * sigma, (weights.mean(), k / total, sigma)


def _ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """The two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    gap = np.searchsorted(a, both, side="right") / len(a) - np.searchsorted(
        b, both, side="right") / len(b)
    return float(np.abs(gap).max())


@pytest.mark.parametrize("perturbation", [None, 0.1], ids=["haar", "perturbed"])
def test_drawn_coordinates_match_the_dense_trial_states_in_distribution(perturbation, dense_trials):
    # 3,000 trials a side, on disjoint seeds: the reports' statistics from the
    # drawn level weights against those of the dense trial states, the
    # corollary at D = 30 (both acceptances and distances) and the lemma at
    # d = 10 (its acceptance and distance).  Six statistics and two runs make
    # twelve comparisons, each held to the two-sample critical value at the
    # family's 5 % level (Bonferroni, 0.05/12): c = sqrt(-ln(0.05/24) / 2)
    # times sqrt(2/3,000), 0.0454.
    trials, critical = 3000, math.sqrt(-math.log(0.05 / 24) / 2) * math.sqrt(2 / 3000)
    mu, nu, lam = P("3,2"), P("3,1,1"), P("3,1,1")
    corollary = certify_corollary_bound(mu, nu, lam, trials, 10**6, perturbation)
    new = [np.array([(t.corollary.acceptance_probability, t.corollary.distance_to_target,
                      t.theorem.acceptance_probability, t.theorem.distance_to_target)
                     for t in corollary])]
    new.append(np.array([(r.acceptance_probability, r.distance_to_target)
                         for r in certify_lemma_bound(P("3,2"), 2, trials, 10**6, perturbation)]))
    old = [dense_trials("corollary", verification_acceptance_operator(mu, nu, lam), perturbation,
                        range(trials)),
           dense_trials("lemma", (2, 5), perturbation, range(trials))]
    statistics = [_ks_statistic(a[:, k], b[:, k]) for a, b in zip(new, old) for k in range(a.shape[1])]
    assert len(statistics) == 6
    assert max(statistics) < critical, statistics


@pytest.mark.parametrize("perturbation", [None, 0.1], ids=["haar", "perturbed"])
def test_drawn_weights_match_the_coordinate_draw_in_distribution(perturbation, coordinate_trials):
    # 3,000 trials a side, on disjoint seeds: the corollary's four statistics
    # from the drawn level weights against those of the draw of a trial's
    # m d_lambda x D coordinates on the blocks and its weight off them, at D
    # = 144 (3,2,1 in 4,2 x 3,2,1).  Four statistics and two runs make eight
    # comparisons, each held to the two-sample critical value at the
    # family's 5 % level (Bonferroni, 0.05/8): c = sqrt(-ln(0.05/16) / 2)
    # times sqrt(2/3,000), 0.0439.
    trials, critical = 3000, math.sqrt(-math.log(0.05 / 16) / 2) * math.sqrt(2 / 3000)
    mu, nu, lam = P("4,2"), P("3,2,1"), P("3,2,1")
    new = np.array([(t.corollary.acceptance_probability, t.corollary.distance_to_target,
                     t.theorem.acceptance_probability, t.theorem.distance_to_target)
                    for t in certify_corollary_bound(mu, nu, lam, trials, 10**6, perturbation)])
    old = coordinate_trials(verification_acceptance_operator(mu, nu, lam).blocks, perturbation,
                            range(trials))
    statistics = [_ks_statistic(new[:, k], old[:, k]) for k in range(4)]
    assert max(statistics) < critical, statistics


@pytest.mark.parametrize("perturbation", [None, 0.3, 0.01, 0.0])
def test_reports_keep_the_bound_identities(perturbation):
    # distance^2 <= 2 eps for the corollary, the weight on A's eigenvalue 0
    # between them; distance^2 = 2 eps for the lemma and the theorem, to
    # rounding.
    for mu, nu, lam in ((P("2,1"),) * 3, (P("3,2"), P("3,1,1"), P("3,1,1")),
                        (P("7"), P("4,2,1"), P("4,2,1"))):
        for trial in certify_corollary_bound(mu, nu, lam, 200, 7, perturbation):
            assert trial.corollary.distance_to_target**2 <= 2 * trial.corollary.epsilon + 1e-12
            assert trial.theorem.distance_to_target**2 == pytest.approx(
                2 * trial.theorem.epsilon, abs=1e-12)
    for shape, m in ((P("3,2"), 2), (P("2,1"), 3), (P("1"), 4)):
        for report in certify_lemma_bound(shape, m, 200, 7, perturbation):
            assert report.distance_to_target**2 == pytest.approx(2 * report.epsilon, abs=1e-12)


# ------------------------------------------------------------- sampled runs

def test_sampled_run_accepts_witness_state():
    sigma = tensor_rep(P("2,1"), P("2,1"))
    xi = wfs_projector(sigma, P("2,1"))
    witness = vec(np.asarray(xi.matrix)) / math.sqrt(xi.rank)
    accepted = 0
    for seed in range(40):
        out = run_verifier_sampled(P("2,1"), P("2,1"), P("2,1"), witness, seed)
        if out["measured"] == "2,1":
            assert out["accepted"]
            assert out["internal_acceptance_probability"] == pytest.approx(1.0, abs=1e-9)
            accepted += 1
        else:
            assert not out["accepted"]
            assert out["stage"] == "weak-fourier-sampling"
    assert accepted > 0


@pytest.mark.parametrize("triple", [("2,1", "2,1", "2,1"), ("3,1", "3,1", "2,2")])
def test_sampled_run_acceptance_is_a_probability_at_the_witness(triple):
    # Rounding put <X', E(X')> one ulp above 1 on both witnesses.
    mu, nu, lam = map(P, triple)
    xi = wfs_projector(tensor_rep(mu, nu), lam)
    witness = vec(np.asarray(xi.matrix)) / math.sqrt(xi.rank)
    for seed in range(5):
        out = run_verifier_sampled(mu, nu, lam, witness, seed)
        if out["measured"] == str(lam):
            assert 1.0 - 1e-9 <= out["internal_acceptance_probability"] <= 1.0


def test_sampled_run_walks_no_group(monkeypatch):
    # The internal test is read from the split of the lambda blocks: neither
    # group sum nor their price is reached.
    sigma = tensor_rep(P("3,1"), P("2,1,1"))
    xi = wfs_projector(sigma, P("3,1"))
    witness = vec(np.asarray(xi.matrix)) / math.sqrt(xi.rank)  # always samples 3,1

    def no_group_sum(*args):
        raise AssertionError("verify run summed over the group")

    for name in ("_circuit_value", "channel_E", "_require_average"):
        monkeypatch.setattr(verifier, name, no_group_sum)
    out = run_verifier_sampled(P("3,1"), P("2,1,1"), P("3,1"), witness, seed=2)
    assert out["stage"] == "internal-state-test"
    assert out["accepted"]
    assert out["internal_acceptance_probability"] == pytest.approx(1.0, abs=1e-9)


def _lambda_state(mu, nu, lam, seed, haar_state):
    """The post-sampling state of a seeded Haar state for lam, which always
    samples lam."""
    op = verification_acceptance_operator(mu, nu, lam)
    d = op.blocks.shape[2]
    projected = op._split(unvec(haar_state(d * d, np.random.default_rng(seed)), d))[0]
    return vec(projected) / math.sqrt(norm_sq(projected))


def _run_against_the_circuit(mu, nu, lam, psi):
    """verify run's acceptance and the coset-tree circuit's on the same
    post-sampling state: the run's measurement, drawn again with its seed."""
    out = run_verifier_sampled(mu, nu, lam, psi, seed=0)
    sigma = tensor_rep(mu, nu)
    label, post = measure_wfs(sigma, psi, 0)
    assert label == lam and out["stage"] == "internal-state-test"
    return out["internal_acceptance_probability"], verifier._circuit_value(
        sigma, unvec(post, sigma.dim))


@pytest.mark.parametrize("mu, nu, lam", list(_nonzero_triples(5)), ids=str)
def test_sampled_run_matches_the_circuit_oracle(mu, nu, lam, haar_state):
    # 1/2 + 1/2 d_lambda ||t||^2 from the split against the walk over all n!
    # control blocks, on two seeded Haar post-sampling states.
    for seed in (0, 1):
        psi = _lambda_state(mu, nu, lam, seed, haar_state)
        value, circuit = _run_against_the_circuit(mu, nu, lam, psi)
        assert abs(value - circuit) <= 1e-12


def test_sampled_run_matches_the_circuit_oracle_at_d210():
    # The phi-pi state of 4,2,1 in 4,3 x 5,1,1: the walk has 5,040 leaves.
    mu, nu, lam = P("4,3"), P("5,1,1"), P("4,2,1")
    psi = max_entangled_over_range(wfs_projector(tensor_rep(mu, nu), lam)).amplitudes
    value, circuit = _run_against_the_circuit(mu, nu, lam, psi)
    assert abs(value - circuit) <= 1e-12
    assert value == pytest.approx(1.0, abs=1e-9)


SPLIT_CASES = [("3,2", "3,1,1", "3,1,1"), ("7", "4,2,1", "4,2,1"), ("4,2", "3,2,1", "3,2,1"),
               ("4,3", "5,1,1", "4,2,1")]


@pytest.mark.parametrize("mu, nu, lam", SPLIT_CASES, ids=str)
def test_sampled_run_split_holds_what_it_prices(mu, nu, lam, monkeypatch, haar_state):
    # From the split's price on, beside the measurement's coordinates Z held
    # before it: t read from Z, at most the size of a post-state.
    mu, nu, lam = P(mu), P(nu), P(lam)
    psi = _lambda_state(mu, nu, lam, 3, haar_state)
    run_verifier_sampled(mu, nu, lam, psi, seed=0)  # the factors' images, cached and priced apart
    priced, checked = [], verifier.require_bytes

    def spy(nbytes, what):
        checked(nbytes, what)
        if what.startswith("the internal test's split"):
            priced.append((nbytes, tracemalloc.get_traced_memory()[0]))
            tracemalloc.reset_peak()

    monkeypatch.setattr(verifier, "require_bytes", spy)
    tracemalloc.start()
    try:
        run_verifier_sampled(mu, nu, lam, psi, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ((price, held),) = priced
    post = 2 * len(psi) * 8
    assert peak - held <= price < 1.25 * (peak - held + post), (peak - held, price)


def test_sampled_run_builds_each_label_blocks_once(monkeypatch):
    # The internal test reads t from the sampled label's blocks, which the
    # measurement built: no second build of lambda's.
    calls, build = [], wfs.isotypic_block_basis
    for module in (wfs, verifier):
        monkeypatch.setattr(module, "isotypic_block_basis",
                            lambda rep, shape: calls.append(shape) or build(rep, shape))
    sigma = tensor_rep(P("3,1"), P("2,1,1"))
    xi = wfs_projector(sigma, P("3,1"))
    witness = vec(np.asarray(xi.matrix)) / math.sqrt(xi.rank)  # always samples 3,1
    calls.clear()
    out = run_verifier_sampled(P("3,1"), P("2,1,1"), P("3,1"), witness, seed=2)
    assert out["stage"] == "internal-state-test"
    assert calls == list(enumerate_partitions(4))


def test_sampled_run_decisions_are_pinned(haar_state):
    # Frozen from the coset-tree circuit's runs on one seeded Haar state of
    # the bench triple, so that a later kernel cannot move them silently.
    psi = haar_state(900, np.random.default_rng(0))
    frozen = json.loads((DATA / "verify-run-3,2x3,1,1-3,1,1-s0-39.json").read_text())
    assert len(frozen) == 40
    for seed, pinned in enumerate(frozen):
        out = run_verifier_sampled(P("3,2"), P("3,1,1"), P("3,1,1"), psi, seed)
        assert out.keys() == pinned.keys()
        assert [out[k] for k in ("measured", "stage", "accepted")] == [
            pinned[k] for k in ("measured", "stage", "accepted")]
        if "internal_acceptance_probability" in pinned:
            assert abs(out["internal_acceptance_probability"]
                       - pinned["internal_acceptance_probability"]) <= 1e-12


def test_sampled_run_builds_no_stack(monkeypatch):
    def guarded(rep):
        raise AssertionError(f"verify run built the stack of a {rep.kind} rep")

    monkeypatch.setattr(yyrep, "rep_stack", guarded)
    monkeypatch.setattr(verifier, "rep_stack", guarded, raising=False)
    sigma = tensor_rep(P("3,1"), P("2,1,1"))
    xi = wfs_projector(sigma, P("3,1"))
    witness = vec(np.asarray(xi.matrix)) / math.sqrt(xi.rank)  # always samples 3,1
    out = run_verifier_sampled(P("3,1"), P("2,1,1"), P("3,1"), witness, seed=2)
    assert out["stage"] == "internal-state-test"
    assert out["internal_acceptance_probability"] == pytest.approx(1.0, abs=1e-9)


def test_sampled_run_is_seed_deterministic():
    psi = phi_plus(4).amplitudes
    a = run_verifier_sampled(P("2,1"), P("2,1"), P("2,1"), psi, 7)
    b = run_verifier_sampled(P("2,1"), P("2,1"), P("2,1"), psi, 7)
    assert a == b


def _binomial_region(n: int, p: float, alpha: float) -> tuple[int, int]:
    """The two-sided region [lo, hi] of a binomial(n, p) count at level alpha:
    each tail beyond it holds at most alpha / 2."""
    pmf = [math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                    + k * math.log(p) + (n - k) * math.log1p(-p)) for k in range(n + 1)]
    below = list(itertools.accumulate(pmf))  # P(X <= k)
    above = list(itertools.accumulate(reversed(pmf)))[::-1]  # P(X >= k)
    lo = next(k for k in range(n + 1) if below[k] > alpha / 2)
    hi = next(k for k in range(n, -1, -1) if above[k] > alpha / 2)
    return lo, hi


def test_sampled_run_accepts_at_its_internal_acceptance_probability(haar_state):
    # A state of the lambda component alone reaches the internal test at
    # every seed; over 2,000 seeds its accept count lies in the two-sided 5 %
    # binomial region of the probability the run reports.  Half the witness
    # Xi plus a Haar part keeps that probability away from 1/2 and 1.
    sigma = tensor_rep(P("2,1"), P("2,1"))
    haar = unvec(haar_state(16, np.random.default_rng(0)), 4)
    x = wfs_projector(sigma, P("2,1")).matrix @ (0.5 * np.eye(4) + haar)
    psi = vec(x) / math.sqrt(norm_sq(x))
    outs = [run_verifier_sampled(P("2,1"), P("2,1"), P("2,1"), psi, seed) for seed in range(2000)]
    assert {out["stage"] for out in outs} == {"internal-state-test"}
    (p,) = {out["internal_acceptance_probability"] for out in outs}
    assert 0.6 < p < 0.9
    lo, hi = _binomial_region(len(outs), p, 0.05)
    assert lo <= sum(out["accepted"] for out in outs) <= hi, (lo, hi)


def test_a_negative_seed_is_rejected():
    # Random(-s) seeds the stream of Random(s), so a negative seed would
    # repeat another seed's trials or draws.
    psi = phi_plus(4).amplitudes
    calls = [lambda: verifier._trial_weights((1, 2, 1), None, -1),
             lambda: certify_lemma_bound(P("2,1"), 2, trials=3, seed=-5),
             lambda: certify_corollary_bound(P("2,1"), P("2,1"), P("2,1"), trials=10, seed=-5),
             lambda: wfs.sample_wfs(tensor_rep(P("2,1"), P("2,1")), psi, -1),
             lambda: run_verifier_sampled(P("2,1"), P("2,1"), P("2,1"), psi, -1)]
    for call in calls:
        with pytest.raises(InvalidArgumentError, match="seed must be nonnegative, got -"):
            call()


def test_trial_weights_stay_finite_up_to_the_level_count_bound():
    # The n = 20 triple (D = 2.7 10^15, m = 170,921) and three levels whose
    # counts sum just under MAX_LEVEL_COUNT: every gamma draw and the total
    # stay finite, Haar and perturbed.
    mu, nu, lam = P("8,6,4,2"), P("7,6,4,3"), P("6,5,4,3,2")
    m = multiplicities(tensor_rep(mu, nu))[lam]
    d = irrep_dimension(mu) * irrep_dimension(nu)
    n20 = tuple(count for _, count in acceptance_levels(m, irrep_dimension(lam), d))
    third = int(verifier.MAX_LEVEL_COUNT) // 3
    for counts in (n20, (third, third, third)):
        assert sum(counts) <= verifier.MAX_LEVEL_COUNT
        for perturbation in (None, 0.1):
            for seed in range(3):
                weights = verifier._trial_weights(counts, perturbation, seed)
                assert all(math.isfinite(w) and w >= 0.0 for w in weights), weights
                assert sum(weights) == pytest.approx(1.0, abs=1e-12)


def test_acceptance_operator_holds_what_it_prices(monkeypatch):
    # D = 490, m = 4, d_lam = 35: the operator is its blocks, m D d_lam floats,
    # and its prices are the builder's: 5 copies of the blocks, then 5 of
    # the chain's m + 1 probe rows and 5 of its m seeds; the blocks' is the peak.
    mu, nu, lam = P("4,3"), P("4,2,1"), P("4,2,1")
    verification_acceptance_operator(mu, nu, lam)  # the factors' images, cached and priced apart
    prices = []
    for module in (verifier, wfs):
        checked = module.require_bytes
        monkeypatch.setattr(module, "require_bytes", lambda nbytes, what, checked=checked:
                            prices.append(nbytes) or checked(nbytes, what))
    tracemalloc.start()
    try:
        op = verification_acceptance_operator(mu, nu, lam)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert op.blocks.shape == (4, 35, 490)
    square = 490 * 490 * 8
    assert prices == [5 * 4 * 490 * 35 * 8, 5 * 5 * 490 * 8, 5 * 4 * 490 * 8]
    assert max(prices) - 2 * square < peak < max(prices) + 8192, f"peak {peak} B"


def test_acceptance_operator_at_d144_builds_no_tensor_stack():
    mu, nu, lam = P("4,2"), P("3,2,1"), P("3,2,1")
    tracemalloc.start()
    try:
        verification_acceptance_operator(mu, nu, lam)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20, f"peak {peak} B"
