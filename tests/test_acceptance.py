"""Top-level acceptance suite.

Each test certifies one headline property of the library at its stated
tolerance and prints a single PASS/FAIL line (to the real stdout, so the
lines survive pytest's capture).
"""

import itertools
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from snverify.characters import irrep_character, lightning_distribution
from snverify.entangled import phi_plus, vec
from snverify.symgroup import (
    Partition,
    class_size,
    enumerate_group,
    enumerate_partitions,
    irrep_dimension,
)
from snverify.verifier import (
    certify_corollary_bound,
    certify_lemma_bound,
    verification_acceptance_operator,
)
from snverify.wfs import gpe_kraus, kronecker_coefficient, wfs_projector
from snverify.yyrep import irrep, rep_evaluate, tensor_rep

P = Partition.parse


_CAPTURE = None


@pytest.fixture(autouse=True)
def _expose_capture(capfd):
    # Allows report() to bypass pytest's output capture, so one PASS/FAIL
    # line per criterion always reaches the real stdout.
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def report(number: int, description: str, ok: bool):
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------

def test_criterion_1_schur_and_character_orthogonality():
    start = time.perf_counter()
    max_residual = 0.0
    # Schur orthogonality of matrix coefficients, every irrep pair and
    # every index, n <= 4:
    # (1/|G|) sum_g rho^a_ij(g) rho^b_kl(g)* = delta_ab delta_ik delta_jl / d_a
    for n in range(2, 5):
        group = enumerate_group(n)
        size = len(group)
        stacks = {
            shape: np.stack([rep_evaluate(irrep(shape), g) for g in group])
            for shape in enumerate_partitions(n)
        }
        for a, sa in stacks.items():
            for b, sb in stacks.items():
                got = np.einsum("gij,gkl->ijkl", sa, np.conj(sb)) / size
                da, db = sa.shape[1], sb.shape[1]
                expected = np.zeros((da, da, db, db))
                if a == b:
                    for i in range(da):
                        for j in range(da):
                            expected[i, j, i, j] = 1.0 / da
                max_residual = max(max_residual, float(np.abs(got - expected).max()))
    # Character orthogonality, n <= 5, class-weighted sums
    for n in range(2, 6):
        size = math.factorial(n)
        shapes = enumerate_partitions(n)
        for a in shapes:
            for b in shapes:
                total = sum(
                    class_size(ct) * irrep_character(a, ct) * irrep_character(b, ct)
                    for ct in shapes
                )
                residual = abs(total / size - (1.0 if a == b else 0.0))
                max_residual = max(max_residual, residual)
    elapsed = time.perf_counter() - start
    report(
        1,
        f"Schur orthogonality (n<=4) and character orthogonality (n<=5), "
        f"max residual {max_residual:.2e}, {elapsed:.1f}s",
        max_residual < 1e-8 and elapsed < 60.0,
    )


def test_criterion_2_isotypic_projector_facts_up_to_n5():
    start = time.perf_counter()
    max_residual = 0.0
    ranks_exact = True
    for n in range(2, 6):
        shapes = enumerate_partitions(n)
        for mu, nu in itertools.product(shapes, repeat=2):
            sigma = tensor_rep(mu, nu)
            povm = [(lam, wfs_projector(sigma, lam)) for lam in shapes]
            total = np.zeros((sigma.dim, sigma.dim), dtype=complex)
            mats = [p.matrix for _, p in povm]
            for a, pa in enumerate(mats):
                max_residual = max(max_residual, float(np.abs(pa - pa.conj().T).max()))
                max_residual = max(max_residual, float(np.abs(pa @ pa - pa).max()))
                for pb in mats[a + 1 :]:
                    max_residual = max(max_residual, float(np.abs(pa @ pb).max()))
                total += pa
            max_residual = max(
                max_residual, float(np.abs(total - np.eye(sigma.dim)).max())
            )
            for lam, proj in povm:
                m = kronecker_coefficient(mu, nu, lam, route="char").value
                if proj.rank != m * irrep_dimension(lam):
                    ranks_exact = False
    elapsed = time.perf_counter() - start
    report(
        2,
        f"isotypic POVM structure and exact ranks m*d for all tensor pairs "
        f"n<=5, max residual {max_residual:.2e}, {elapsed:.1f}s",
        max_residual < 1e-8 and ranks_exact and elapsed < 300.0,
    )


def test_criterion_3_phase_estimation_kraus_identity():
    max_residual = 0.0
    for n in (3, 4):
        shapes = enumerate_partitions(n)
        for mu, nu in itertools.product(shapes, repeat=2):
            sigma = tensor_rep(mu, nu)
            for lam in shapes:
                kraus = gpe_kraus(sigma, lam)
                xi = wfs_projector(sigma, lam)
                residual = np.abs(kraus.matrix.conj().T @ kraus.matrix - xi.matrix).max()
                max_residual = max(max_residual, float(residual))
    report(
        3,
        f"phase-estimation Kraus identity E+E = Xi for all tensor cases at "
        f"n=3,4, max residual {max_residual:.2e}",
        max_residual < 1e-8,
    )


def test_criterion_4_kronecker_route_agreement():
    agree = True
    for n in range(2, 5):
        shapes = enumerate_partitions(n)
        for mu, nu, lam in itertools.product(shapes, repeat=3):
            a = kronecker_coefficient(mu, nu, lam, route="char").value
            b = kronecker_coefficient(mu, nu, lam, route="rank").value
            agree = agree and (a == b)
    shapes5 = enumerate_partitions(5)
    rng = np.random.default_rng(0)
    for _ in range(50):
        mu, nu, lam = (shapes5[rng.integers(len(shapes5))] for _ in range(3))
        a = kronecker_coefficient(mu, nu, lam, route="char").value
        b = kronecker_coefficient(mu, nu, lam, route="rank").value
        agree = agree and (a == b)
    dims_exact = True
    for n in range(2, 6):
        shapes = enumerate_partitions(n)
        for mu, nu in itertools.product(shapes, repeat=2):
            total = sum(
                kronecker_coefficient(mu, nu, lam, route="char").value
                * irrep_dimension(lam)
                for lam in shapes
            )
            dims_exact = dims_exact and total == irrep_dimension(mu) * irrep_dimension(nu)
    report(
        4,
        "Kronecker character-sum and projector-rank routes agree exactly "
        "(all triples n<=4, 50 random at n=5) and multiplicities sum to "
        "the tensor dimension",
        agree and dims_exact,
    )


def test_criterion_5_lightning_distribution():
    max_residual = 0.0
    for n in range(2, 5):
        shapes = enumerate_partitions(n)
        for mu, nu in itertools.product(shapes, repeat=2):
            sigma = tensor_rep(mu, nu)
            dist = lightning_distribution(mu, nu)
            phi = phi_plus(sigma.dim).amplitudes
            for lam, prob in dist.items():
                xi = wfs_projector(sigma, lam)
                big = np.kron(xi.matrix, np.eye(sigma.dim))
                born = float((phi.conj() @ big @ phi).real)
                max_residual = max(max_residual, abs(prob - born))
    frozen = lightning_distribution(P("2,1"), P("2,1"))
    frozen_ok = (
        abs(frozen[P("3")] - 0.25) < 1e-12
        and abs(frozen[P("2,1")] - 0.5) < 1e-12
        and abs(frozen[P("1,1,1")] - 0.25) < 1e-12
    )
    report(
        5,
        f"irrep sampling distribution matches the Born rule on the "
        f"maximally entangled state (n<=4), max residual {max_residual:.2e}; "
        f"frozen values for (2,1)x(2,1)",
        max_residual < 1e-9 and frozen_ok,
    )


def test_criterion_6_verifier_completeness_and_uniqueness(accepting_oracle, span_distance):
    op = verification_acceptance_operator(P("2,1"), P("2,1"), P("2,1"))
    spectrum = np.repeat(*zip(*op.levels))
    ones = int(np.sum(spectrum > 1.0 - 1e-8))
    accepting = accepting_oracle(P("2,1"), P("2,1"), P("2,1"))
    xi = wfs_projector(tensor_rep(P("2,1"), P("2,1")), P("2,1"))
    witness = vec(np.asarray(xi.matrix)) / math.sqrt(xi.rank)
    eigvec_residual = span_distance(accepting, witness)
    gap_empty = not np.any((spectrum > op.s + 1e-8) & (spectrum < 1.0 - 1e-8))
    report(
        6,
        f"S_3 verifier: eigenvalue 1 with multiplicity {ones}, witness "
        f"residual {eigvec_residual:.2e}, soundness {op.s:.4f} <= 8/9 with "
        f"an empty (s, 1) gap",
        ones == 1 and eigvec_residual < 1e-8 and op.s <= 8.0 / 9.0 and gap_empty,
    )


def test_criterion_7_robustness_bounds_1000_trials():
    start = time.perf_counter()
    violations = 0
    # internal-state-test bound, 2 sqrt(2 eps): n = 3 and n = 4 instances
    for shape in (P("2,1"), P("3,1")):
        reports = certify_lemma_bound(shape, 2, trials=1000, seed=0)
        violations += sum(not r.bound_satisfied for r in reports)
    # full-verifier bound, 3 sqrt(2 eps), plus the post-sampling form
    for mu, nu, lam in ((P("2,1"),) * 3, (P("3,1"),) * 3):
        trials = certify_corollary_bound(mu, nu, lam, trials=1000, seed=0)
        violations += sum(not t.corollary.bound_satisfied for t in trials)
        violations += sum(not t.theorem.bound_satisfied for t in trials)
    elapsed = time.perf_counter() - start
    report(
        7,
        f"robustness bounds: 1000 seeded trials per instance at n=3,4, "
        f"{violations} violations at slack 1e-8, {elapsed:.1f}s",
        violations == 0 and elapsed < 300.0,
    )


def test_criterion_8_vectorization_identities():
    rng = np.random.default_rng(42)
    max_residual = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 6))
        a, b, c = (
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for _ in range(3)
        )
        lhs = np.kron(b, c) @ vec(a)
        rhs = vec(b @ a @ c.T)
        max_residual = max(max_residual, float(np.abs(lhs - rhs).max()))
        inner = abs(np.vdot(vec(a), vec(b)) - np.trace(a.conj().T @ b))
        max_residual = max(max_residual, float(inner))
    report(
        8,
        f"vectorization identities on 100 random triples, max residual "
        f"{max_residual:.2e}",
        max_residual < 1e-10,
    )


def test_criterion_9_selftest_determinism():
    cmd = [
        sys.executable, "-m", "snverify.cli",
        "selftest", "--n-max", "4", "--seed", "7",
    ]
    a = subprocess.run(cmd, capture_output=True, check=True)
    b = subprocess.run(cmd, capture_output=True, check=True)
    identical = a.stdout == b.stdout
    passed = json.loads(a.stdout).get("all_passed") is True
    report(
        9,
        "selftest --n-max 4 --seed 7 run twice produces byte-identical "
        "JSON and all suites pass",
        identical and passed,
    )
