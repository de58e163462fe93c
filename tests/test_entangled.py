"""Vectorization calculus, maximally entangled states over the range of a
projector, the post-sampling states, and the irrep blocks of an isotypic
component with their block-entangled states.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snverify.entangled import (
    StateVector,
    max_entangled_over_range,
    phi_plus,
    psi_lambda,
    unvec,
    vec,
)
from snverify.errors import DegenerateInputError, InvalidArgumentError
from snverify.symgroup import Partition, enumerate_group, irrep_dimension
from snverify.wfs import Projector, isotypic_block_basis, wfs_projector
from snverify.yyrep import (
    identity_times_irrep,
    irrep,
    regular_representations,
    rep_evaluate,
    tensor_rep,
)

P = Partition.parse


def random_matrix(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


# ------------------------------------------------------------- vectorization

@given(st.integers(min_value=0, max_value=500), st.integers(min_value=2, max_value=5))
@settings(max_examples=50, deadline=None)
def test_vec_intertwines_left_right_multiplication(seed, d):
    rng = np.random.default_rng(seed)
    a, b, c = (random_matrix(rng, d) for _ in range(3))
    np.testing.assert_allclose(
        np.kron(b, c) @ vec(a), vec(b @ a @ c.T), atol=1e-10
    )


@given(st.integers(min_value=0, max_value=500), st.integers(min_value=2, max_value=5))
@settings(max_examples=50, deadline=None)
def test_vec_preserves_frobenius_inner_product(seed, d):
    rng = np.random.default_rng(seed)
    a, b = random_matrix(rng, d), random_matrix(rng, d)
    assert np.vdot(vec(a), vec(b)) == pytest.approx(np.trace(a.conj().T @ b), abs=1e-9)
    np.testing.assert_allclose(unvec(vec(a), d), a, atol=0)


def test_phi_plus_is_normalized_vec_identity():
    for d in (1, 2, 5):
        phi = phi_plus(d)
        np.testing.assert_allclose(phi.amplitudes, vec(np.eye(d)) / math.sqrt(d), atol=0)
        assert phi.registers == (d, d)


def test_state_vector_validation():
    with pytest.raises(InvalidArgumentError):
        StateVector(registers=(2, 2), amplitudes=np.ones(4))
    with pytest.raises(InvalidArgumentError):
        StateVector(registers=(2,), amplitudes=np.ones(4) / 2.0)
    # Registers whose product is the amplitude count, or () for one amplitude.
    for registers in [(-2, -2), (True, 4), (4.0,), (), (4, 1.0), [4], (0, 4)]:
        size = int(math.prod(registers))
        with pytest.raises(InvalidArgumentError, match="registers must be"):
            StateVector(registers=registers, amplitudes=np.ones(size) / math.sqrt(size))
    assert StateVector(registers=(np.int64(4),), amplitudes=np.ones(4) / 2.0).dim == 4


# -------------------------------------------- maximally entangled over ranges

def range_projector(basis) -> Projector:
    return Projector(matrix=basis @ basis.conj().T, rank=basis.shape[1])


def test_max_entangled_is_basis_invariant():
    rng = np.random.default_rng(11)
    basis = np.linalg.qr(random_matrix(rng, 6)[:, :3])[0]
    # rotate the basis by a random unitary of the subspace
    u, _ = np.linalg.qr(random_matrix(rng, 3))
    a = max_entangled_over_range(range_projector(basis)).amplitudes
    b = max_entangled_over_range(range_projector(basis @ u)).amplitudes
    np.testing.assert_allclose(a, b, atol=1e-10)


def test_max_entangled_over_full_space_is_phi_plus():
    full = Projector(matrix=np.eye(4), rank=4)
    np.testing.assert_allclose(
        max_entangled_over_range(full).amplitudes, phi_plus(4).amplitudes, atol=1e-12
    )


def test_max_entangled_equals_normalized_vec_of_projector():
    # vec(B B^H)/sqrt(k) is the basis sum (1/sqrt k) sum_i b_i x conj(b_i).
    rng = np.random.default_rng(13)
    basis = np.linalg.qr(random_matrix(rng, 5)[:, :2])[0]
    expected = sum(np.kron(b, b.conj()) for b in basis.T) / math.sqrt(2)
    state = max_entangled_over_range(range_projector(basis))
    assert state.registers == (5, 5)
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-10)


# ------------------------------------------------------- post-sampling states

def test_psi_lambda_is_projected_phi_plus():
    # The character-weighted group sum applied to vec X is proportional to
    # vec(Xi X); check against that oracle for every label.
    sigma = tensor_rep(P("2,1"), P("2,1"))
    phi = phi_plus(sigma.dim)
    for lam in (P("3"), P("2,1"), P("1,1,1")):
        state, norm_sq = psi_lambda(sigma, lam, phi.amplitudes)
        xi = wfs_projector(sigma, lam)
        expected = np.kron(xi.matrix, np.eye(sigma.dim)) @ phi.amplitudes
        expected = expected / np.linalg.norm(expected)
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-9)
        assert norm_sq > 0


def test_psi_lambda_norm_scales_with_projector_weight():
    sigma = tensor_rep(P("2,1"), P("2,1"))
    phi = phi_plus(sigma.dim)
    d = irrep_dimension(P("2,1"))
    size = 6
    _, norm_sq = psi_lambda(sigma, P("2,1"), phi.amplitudes)
    # unnormalized sum is (|G|/d) vec(Xi X); for X = I/sqrt(D) the squared
    # norm is (|G|/d)^2 rank(Xi)/D
    xi = wfs_projector(sigma, P("2,1"))
    expected = (size / d) ** 2 * xi.rank / sigma.dim
    assert norm_sq == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_psi_lambda_rejects_a_non_finite_phi(bad):
    # Rejected before any product: no warning, no division by a NaN weight.
    sigma = tensor_rep(P("2,1"), P("2,1"))
    phi = phi_plus(sigma.dim).amplitudes.copy()
    phi[1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError, match="finite"):
            psi_lambda(sigma, P("2,1"), phi)


def test_psi_lambda_rejects_absent_component():
    rep = irrep(P("2,1"))  # contains only its own label
    with pytest.raises(DegenerateInputError):
        psi_lambda(rep, P("3"), phi_plus(rep.dim).amplitudes)


# ----------------------------------------------------------- block structure

def test_isotypic_blocks_of_regular_representation():
    left, _ = regular_representations(3)
    for lam in (P("3"), P("2,1"), P("1,1,1")):
        d = irrep_dimension(lam)
        blocks = isotypic_block_basis(left, lam)
        assert len(blocks) == d  # multiplicity of each irrep in the regular rep
        lam_rep = irrep(lam)
        for b in blocks.transpose(0, 2, 1):
            np.testing.assert_allclose(b.conj().T @ b, np.eye(d), atol=1e-9)
            for g in enumerate_group(3):
                np.testing.assert_allclose(
                    rep_evaluate(left, g) @ b, b @ rep_evaluate(lam_rep, g), atol=1e-9
                )


def test_isotypic_blocks_are_mutually_orthogonal():
    left, _ = regular_representations(3)
    blocks = isotypic_block_basis(left, P("2,1"))
    stacked = np.column_stack(blocks.transpose(0, 2, 1))
    np.testing.assert_allclose(
        stacked.conj().T @ stacked, np.eye(stacked.shape[1]), atol=1e-9
    )


def test_block_basis_empty_for_absent_label():
    rep = identity_times_irrep(2, P("2,1"))
    blocks = isotypic_block_basis(rep, P("3"))
    assert blocks.shape == (0, 1, rep.dim) and not blocks.flags.writeable


# ----------------------------------------------------- entangled-span spaces

def fixed_point_space(rep, lam, commutant) -> np.ndarray:
    """Orthonormal columns of the eigenvalue-1 space of (Xi tensor I) W, the
    internal test's fixed points inside the lam isotypic component, from
    the dense commutant oracle W."""
    gamma = np.kron(wfs_projector(rep, lam).matrix, np.eye(rep.dim))
    fixed = gamma @ commutant(rep)
    evals, evecs = np.linalg.eigh((fixed + fixed.conj().T) / 2)
    return evecs[:, evals > 0.5]


def block_states(rep, lam) -> np.ndarray:
    """The columns vec(B_a B_a^T)/sqrt(d) over the irrep blocks B_a of the lam
    component: one block-wise maximally entangled state per block."""
    d = irrep_dimension(lam)
    cols = [vec(b @ b.T) / math.sqrt(d) for b in isotypic_block_basis(rep, lam).transpose(0, 2, 1)]
    return np.column_stack(cols) if cols else np.zeros((rep.dim**2, 0))


def test_m_lambda_span_dimension_is_multiplicity(commutant_oracle):
    left, _ = regular_representations(3)
    for lam in (P("3"), P("2,1"), P("1,1,1")):
        d = irrep_dimension(lam)
        span = block_states(left, lam)
        fixed = fixed_point_space(left, lam, commutant_oracle)
        assert span.shape[1] == d  # one entangled state per block, m = d here
        np.testing.assert_allclose(span.conj().T @ span, np.eye(d), atol=1e-10)
        assert fixed.shape[1] == d * d  # full commutant block, m^2
        # the span is contained in the fixed-point space
        proj = fixed @ fixed.conj().T
        np.testing.assert_allclose(proj @ span, span, atol=1e-8)


def test_m_lambda_routes_coincide_when_multiplicity_one(commutant_oracle):
    sigma = tensor_rep(P("2,1"), P("2,1"))
    for lam in (P("3"), P("2,1"), P("1,1,1")):
        span = block_states(sigma, lam)
        fixed = fixed_point_space(sigma, lam, commutant_oracle)
        assert span.shape[1] == fixed.shape[1] == 1
        overlap = abs(np.vdot(span[:, 0], fixed[:, 0]))
        assert overlap == pytest.approx(1.0, abs=1e-8)


def test_m_lambda_span_states_are_block_entangled():
    # For sigma with m = 1, the single span state is the maximally
    # entangled state over the isotypic subspace.
    sigma = tensor_rep(P("2,1"), P("2,1"))
    lam = P("2,1")
    span = block_states(sigma, lam)
    xi = wfs_projector(sigma, lam)
    expected = vec(np.asarray(xi.matrix)) / math.sqrt(xi.rank)
    overlap = abs(np.vdot(span[:, 0], expected))
    assert overlap == pytest.approx(1.0, abs=1e-8)
