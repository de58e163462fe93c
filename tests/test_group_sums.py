"""Every isotypic quantity, the group average and the circuit are checked
here against a brute-force per-element Python sum over the single-element
chain rep_evaluate, at n <= 4; a tensor product is evaluated through its
dense np.kron oracle.
"""

import math

import numpy as np
import pytest

from snverify.entangled import psi_lambda, unvec, vec
from snverify.errors import DegenerateInputError
from snverify.symgroup import Partition, enumerate_group, enumerate_partitions
from snverify.verifier import channel_E, internal_test_probability
from snverify.wfs import gpe_kraus, isotypic_block_basis, wfs_projector
from snverify.yyrep import (
    identity_times_irrep,
    irrep,
    regular_representations,
    rep_evaluate,
    tensor_rep,
)

P = Partition.parse
ATOL = 1e-12

REPS = {
    "2,1x2,1": lambda: tensor_rep(P("2,1"), P("2,1")),
    "3x1,1,1": lambda: tensor_rep(P("3"), P("1,1,1")),
    "3,1x2,1,1": lambda: tensor_rep(P("3,1"), P("2,1,1")),
    "2,2x3,1": lambda: tensor_rep(P("2,2"), P("3,1")),
    "I2x2,1": lambda: identity_times_irrep(2, P("2,1")),
    "left-regular-3": lambda: regular_representations(3)[0],
}


@pytest.fixture(params=list(REPS), ids=list(REPS))
def rep(request):
    return REPS[request.param]()


def chain_chi(shape, g):
    return np.trace(rep_evaluate(irrep(shape), g))


def close(got, expected):
    np.testing.assert_allclose(got, expected, rtol=0, atol=ATOL)


def test_projector_matches_per_element_sum(rep, dense_rep):
    group = enumerate_group(rep.n)
    for shape in enumerate_partitions(rep.n):
        d = irrep(shape).dim
        brute = sum(
            d / len(group) * np.conj(chain_chi(shape, g)) * rep_evaluate(dense_rep(rep), g) for g in group
        )
        close(wfs_projector(rep, shape).matrix, brute)


def test_kraus_element_matches_per_element_sum(rep, ft_row_order, dense_rep):
    group = enumerate_group(rep.n)
    size = len(group)
    rows = ft_row_order(rep.n)
    for shape in enumerate_partitions(rep.n):
        brute = np.zeros((size * rep.dim, rep.dim), dtype=complex)
        for g in group:
            control = np.array([
                math.sqrt(irrep(lab).dim / size) * rep_evaluate(irrep(lab), g)[i, j]
                if lab == shape else 0.0
                for lab, i, j in rows
            ])
            brute += np.kron(control[:, None], rep_evaluate(dense_rep(rep), g)) / math.sqrt(size)
        close(gpe_kraus(rep, shape).matrix, brute)


def test_block_units_match_per_element_sum(rep, dense_rep):
    # e_i1 = sum_a B_a[:, i] B_a[:, 0]^T over the aligned irrep blocks.
    group = enumerate_group(rep.n)
    for shape in enumerate_partitions(rep.n):
        lam = irrep(shape)
        blocks = isotypic_block_basis(rep, shape)
        units = np.einsum("aix,ay->ixy", blocks, blocks[:, 0])
        assert units.shape == (lam.dim, rep.dim, rep.dim)
        for i in range(lam.dim):
            brute = sum(
                lam.dim / len(group) * np.conj(rep_evaluate(lam, g)[i, 0]) * rep_evaluate(dense_rep(rep), g)
                for g in group
            )
            close(units[i], brute)


def test_psi_lambda_matches_per_element_sum(rep, dense_rep):
    d = rep.dim
    rng = np.random.default_rng(3)
    phi = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
    phi /= np.linalg.norm(phi)
    for shape in enumerate_partitions(rep.n):
        total = sum(
            np.conj(chain_chi(shape, h)) * (rep_evaluate(dense_rep(rep), h) @ unvec(phi, d))
            for h in enumerate_group(rep.n)
        )
        norm_sq = float(np.linalg.norm(total) ** 2)
        if norm_sq < 1e-12:
            with pytest.raises(DegenerateInputError):
                psi_lambda(rep, shape, phi)
            continue
        state, got_norm_sq = psi_lambda(rep, shape, phi)
        assert got_norm_sq == pytest.approx(norm_sq, rel=0, abs=ATOL * max(1.0, norm_sq))
        close(state.amplitudes, vec(total) / math.sqrt(norm_sq))


def test_channel_matches_per_element_sum(rep, dense_rep):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((rep.dim, rep.dim)) + 1j * rng.standard_normal((rep.dim, rep.dim))
    group = enumerate_group(rep.n)
    brute = sum(rep_evaluate(dense_rep(rep), g) @ x @ rep_evaluate(dense_rep(rep), g).conj().T for g in group)
    close(channel_E(rep, x), brute / len(group))


def test_commutant_matches_per_element_sum(rep, commutant_oracle):
    # The vectorized channel: W vec(X) = vec(E(X)) for the per-element W.
    rng = np.random.default_rng(9)
    x = rng.standard_normal((rep.dim, rep.dim)) + 1j * rng.standard_normal((rep.dim, rep.dim))
    close(commutant_oracle(rep) @ vec(x), vec(channel_E(rep, x)))


def test_circuit_value_matches_statevector_loop(rep, dense_rep):
    d = rep.dim
    group = enumerate_group(rep.n)
    size = len(group)
    rng = np.random.default_rng(7)
    psi = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
    psi /= np.linalg.norm(psi)
    # qubit tensor control tensor target: Hadamard, controlled-U, Hadamard
    tau = np.kron(np.full(size, 1.0 / math.sqrt(size)), psi)
    u_tau = np.empty_like(tau)
    for k, g in enumerate(group):
        mat = rep_evaluate(dense_rep(rep), g)
        block = unvec(tau[k * d * d : (k + 1) * d * d], d)
        u_tau[k * d * d : (k + 1) * d * d] = vec(mat @ block @ mat.conj().T)
    brute = float(np.linalg.norm((tau + u_tau) / 2) ** 2)
    _, circuit = internal_test_probability(rep, psi)
    assert circuit == pytest.approx(brute, rel=0, abs=ATOL)
