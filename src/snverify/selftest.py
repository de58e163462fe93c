"""Self-test harness: executes every invariant suite at a configurable
degree cap and reports per-suite pass/fail counts and the largest observed
numerical residual.

The report is fully deterministic given (n_max, trials, seed); wall-clock
timings are returned separately so callers can keep the report
byte-reproducible.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .characters import irrep_character, lightning_distribution, multiplicities
from .entangled import max_entangled_over_range, psi_lambda, vec
from .symgroup import (
    Partition,
    class_size,
    compose,
    enumerate_group,
    enumerate_partitions,
    group_index,
    irrep_dimension,
)
from .verifier import (
    certify_corollary_bound,
    certify_lemma_bound,
    channel_E,
    internal_test_probability,
    verification_acceptance_operator,
)
from .wfs import (
    Projector,
    gpe_kraus,
    isotypic_block_basis,
    kronecker_coefficient,
    norm_sq,
    wfs_projector,
)
from .yyrep import irrep, regular_representations, rep_stack, tensor_rep


@dataclass
class SuiteResult:
    name: str
    passed: int = 0
    failed: int = 0
    max_residual: float = 0.0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, residual: float = 0.0, what: str = ""):
        self.max_residual = max(self.max_residual, float(residual))
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if what and len(self.failures) < 10:
                self.failures.append(what)

    def check_residual(self, residual: float, tol: float, what: str = ""):
        self.check(residual <= tol, residual, what)

    def to_json(self) -> dict:
        doc = {
            "name": self.name,
            "passed": self.passed,
            "failed": self.failed,
            "max_residual": float(self.max_residual),
        }
        if self.failures:
            doc["failures"] = self.failures
        return doc


def suite_schur(n_max: int) -> SuiteResult:
    out = SuiteResult("schur-orthogonality")
    for n in range(2, min(n_max, 4) + 1):
        size = math.factorial(n)
        shapes = enumerate_partitions(n)
        stacks = {shape: rep_stack(irrep(shape)) for shape in shapes}
        for s1 in shapes:
            for s2 in shapes:
                overlap = np.einsum("gab,gcd->abcd", np.conj(stacks[s1]), stacks[s2])
                if s1 == s2:
                    d = irrep_dimension(s1)
                    expected = (size / d) * np.einsum(
                        "ac,bd->abcd", np.eye(d), np.eye(d)
                    )
                else:
                    expected = np.zeros_like(overlap)
                out.check_residual(
                    float(np.abs(overlap - expected).max()), 1e-8, f"n={n} {s1}|{s2}"
                )
    return out


def suite_characters(n_max: int) -> SuiteResult:
    out = SuiteResult("character-orthogonality")
    for n in range(2, min(n_max, 5) + 1):
        size = math.factorial(n)
        shapes = enumerate_partitions(n)
        classes = enumerate_partitions(n)
        for s1 in shapes:
            for s2 in shapes:
                total = sum(
                    class_size(ct) * irrep_character(s1, ct) * irrep_character(s2, ct)
                    for ct in classes
                )
                expected = size if s1 == s2 else 0
                out.check(total == expected, abs(total - expected), f"n={n} {s1}|{s2}")
    return out


def suite_twisted_identity(n_max: int) -> SuiteResult:
    out = SuiteResult("twisted-character-identity")
    for n in range(2, min(n_max, 4) + 1):
        group = enumerate_group(n)
        size = len(group)
        # products[h, k] is the index of g_k o h
        products = np.array([[group_index(compose(g, h)) for g in group] for h in group])
        for s1 in enumerate_partitions(n):
            d1 = irrep_dimension(s1)
            chars = np.trace(rep_stack(irrep(s1)), axis1=1, axis2=2).real
            for s2 in enumerate_partitions(n):
                stack2 = rep_stack(irrep(s2))
                # lhs[h] = sum_g chi^s1(g)* rho^s2(g o h)
                lhs = np.einsum("k,hkab->hab", np.conj(chars), stack2[products])
                expected = (size / d1) * stack2 if s1 == s2 else np.zeros_like(lhs)
                for k in range(size):
                    out.check_residual(
                        float(np.abs(lhs[k] - expected[k]).max()), 1e-8, f"n={n} {s1}|{s2}"
                    )
    return out


def suite_wfs(n_max: int) -> SuiteResult:
    out = SuiteResult("wfs-povm")
    for n in range(2, min(n_max, 5) + 1):
        shapes = enumerate_partitions(n)
        for mu in shapes:
            for nu in shapes:
                sigma = tensor_rep(mu, nu)
                povm = [(lam, wfs_projector(sigma, lam)) for lam in shapes]
                total = np.zeros((sigma.dim, sigma.dim), dtype=complex)
                for lam, proj in povm:
                    mat = proj.matrix
                    out.check_residual(
                        float(np.abs(mat - mat.conj().T).max()), 1e-8, f"hermitian {lam}"
                    )
                    out.check_residual(
                        float(np.abs(mat @ mat - mat).max()), 1e-8, f"idempotent {lam}"
                    )
                    m = kronecker_coefficient(mu, nu, lam).value
                    out.check(
                        proj.rank == m * irrep_dimension(lam),
                        what=f"rank {mu}|{nu}|{lam}",
                    )
                    total += mat
                for i in range(len(povm)):
                    for j in range(i + 1, len(povm)):
                        prod = povm[i][1].matrix @ povm[j][1].matrix
                        out.check_residual(
                            float(np.abs(prod).max()), 1e-8, f"orthogonal {i},{j}"
                        )
                out.check_residual(
                    float(np.abs(total - np.eye(sigma.dim)).max()),
                    1e-8,
                    f"completeness {mu}|{nu}",
                )
    return out


def suite_gpe(n_max: int) -> SuiteResult:
    out = SuiteResult("gpe-kraus")
    for n in range(2, min(n_max, 4) + 1):
        shapes = enumerate_partitions(n)
        for mu in shapes:
            for nu in shapes:
                sigma = tensor_rep(mu, nu)
                for lam in shapes:
                    kraus = gpe_kraus(sigma, lam)
                    xi = wfs_projector(sigma, lam)
                    residual = float(
                        np.abs(kraus.matrix.conj().T @ kraus.matrix - xi.matrix).max()
                    )
                    out.check_residual(residual, 1e-8, f"n={n} {mu}|{nu}|{lam}")
    return out


def suite_kronecker(n_max: int, seed: int) -> SuiteResult:
    out = SuiteResult("kronecker-routes")
    for n in range(2, min(n_max, 4) + 1):
        shapes = enumerate_partitions(n)
        for mu in shapes:
            for nu in shapes:
                by_char = multiplicities(tensor_rep(mu, nu))
                for lam in shapes:
                    by_rank = kronecker_coefficient(mu, nu, lam, route="rank").value
                    out.check(by_char[lam] == by_rank, what=f"routes {mu}|{nu}|{lam}")
                # dimension count
                total = sum(m * irrep_dimension(lam) for lam, m in by_char.items())
                out.check(
                    total == irrep_dimension(mu) * irrep_dimension(nu),
                    what=f"dimension count {mu}|{nu}",
                )
    if n_max >= 5:
        rng = np.random.default_rng(seed)
        shapes = enumerate_partitions(5)
        for _ in range(50):
            mu, nu, lam = (shapes[rng.integers(len(shapes))] for _ in range(3))
            by_char = kronecker_coefficient(mu, nu, lam, route="char").value
            by_rank = kronecker_coefficient(mu, nu, lam, route="rank").value
            out.check(by_char == by_rank, what=f"routes n=5 {mu}|{nu}|{lam}")
    return out


def suite_lightning(n_max: int) -> SuiteResult:
    out = SuiteResult("lightning-distribution")
    for n in range(2, min(n_max, 4) + 1):
        shapes = enumerate_partitions(n)
        for mu in shapes:
            for nu in shapes:
                dist = lightning_distribution(mu, nu)
                sigma = tensor_rep(mu, nu)
                d = sigma.dim
                plus = vec(np.eye(d)) / math.sqrt(d)
                for lam, prob in dist.items():
                    xi = wfs_projector(sigma, lam)
                    lifted = np.kron(xi.matrix, np.eye(d))
                    born = float((plus.conj() @ lifted @ plus).real)
                    out.check_residual(abs(born - prob), 1e-9, f"{mu}|{nu}|{lam}")
    return out


def suite_vectorization(seed: int) -> SuiteResult:
    out = SuiteResult("vectorization")
    rng = np.random.default_rng(seed)
    for _ in range(100):
        d = 3
        a, b, c = (
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for _ in range(3)
        )
        out.check_residual(
            abs(np.linalg.norm(vec(a)) - np.linalg.norm(a, "fro")), 1e-10, "norm"
        )
        out.check_residual(
            abs(np.vdot(vec(a), vec(b)) - np.trace(a.conj().T @ b)), 1e-10, "inner"
        )
        out.check_residual(
            float(np.abs(np.kron(b, c) @ vec(a) - vec(b @ a @ c.T)).max()),
            1e-10,
            "kron",
        )
    return out


def suite_entangled(n_max: int, seed: int) -> SuiteResult:
    out = SuiteResult("entangled-subspaces")
    rng = np.random.default_rng(seed)
    # basis invariance of the maximally entangled state over a random plane
    raw = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    basis = np.linalg.qr(raw)[0]
    mix = np.linalg.qr(
        rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    )[0]
    states = [
        max_entangled_over_range(Projector(matrix=b @ b.conj().T, rank=2)).amplitudes
        for b in (basis, basis @ mix)
    ]
    out.check_residual(float(np.abs(states[0] - states[1]).max()), 1e-9, "basis invariance")
    # post-sampling states stay inside the isotypic component
    two_one = Partition((2, 1))
    sigma = tensor_rep(two_one, two_one)
    d = sigma.dim
    xi = wfs_projector(sigma, two_one)
    lifted = np.kron(xi.matrix, np.eye(d))
    phi = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
    phi /= np.linalg.norm(phi)
    state, _ = psi_lambda(sigma, two_one, phi)
    out.check_residual(
        float(np.abs(lifted @ state.amplitudes - state.amplitudes).max()),
        1e-8,
        "psi-lambda image",
    )
    # block states vs fixed points of the internal test; equality at multiplicity one
    count, rank, off = _block_states_and_fixed_points(sigma, two_one)
    out.check(count == 1 and abs(rank - 1) <= 1e-8, abs(rank - 1), "m=1 dims")
    out.check_residual(off, 1e-8, "m=1 span overlap")
    if n_max >= 3:
        left, _ = regular_representations(3)
        count, rank, off = _block_states_and_fixed_points(left, two_one)
        out.check(count == 2, what="regular span dim")
        out.check_residual(abs(rank - 4), 1e-8, "regular fixed dim")
        out.check_residual(off, 1e-8, "containment")
    return out


def _block_states_and_fixed_points(rep, shape: Partition) -> tuple[int, float, float]:
    """The number of irrep blocks B_a of the shape component, the trace of
    X -> Xi E(X) on the D^2 matrix units, and the largest ||Xi E(X_a) - X_a||_F
    over the block states X_a = B_a B_a^T / sqrt(d).  Xi tensor I commutes
    with the channel's W, so the map is an orthogonal projection onto the
    internal test's fixed points in the component, and its trace is their
    dimension m^2.  For small D only."""
    d = rep.dim
    xi = wfs_projector(rep, shape).matrix
    units = np.eye(d * d).reshape(d * d, d, d)
    rank = sum(float(np.vdot(unit, xi @ channel_E(rep, unit)).real) for unit in units)
    blocks = isotypic_block_basis(rep, shape)
    states = [b @ b.T / math.sqrt(irrep_dimension(shape))
              for b in map(np.ascontiguousarray, blocks.transpose(0, 2, 1))]
    off = max((math.sqrt(norm_sq(xi @ channel_E(rep, x) - x)) for x in states), default=0.0)
    return len(blocks), rank, off


def suite_verifier(n_max: int, trials: int, seed: int) -> SuiteResult:
    out = SuiteResult("verifier")
    two_one = Partition((2, 1))
    sigma = tensor_rep(two_one, two_one)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    ex = channel_E(sigma, x)
    out.check_residual(float(np.abs(channel_E(sigma, ex) - ex).max()), 1e-9, "E idempotent")
    op = verification_acceptance_operator(two_one, two_one, two_one)
    out.check(op.levels[0] == (1.0, 1), what="eigenvalue-1 multiplicity")
    out.check(op.s <= 8.0 / 9.0 + 1e-12, what="soundness bound")
    witness = max_entangled_over_range(wfs_projector(sigma, two_one)).amplitudes
    out.check_residual(op.distance_to(witness), 1e-8, "witness eigenvector")
    formula, circuit = internal_test_probability(sigma, witness)
    out.check_residual(abs(formula - 1.0), 1e-8, "witness formula")
    out.check_residual(abs(circuit - 1.0), 1e-8, "witness circuit")
    for report in certify_lemma_bound(two_one, 2, trials, seed):
        out.check(report.bound_satisfied, what="lemma bound")
    for trial in certify_corollary_bound(two_one, two_one, two_one, trials, seed + 1):
        out.check(trial.corollary.bound_satisfied, what="corollary bound")
        out.check(trial.theorem.bound_satisfied, what="theorem bound")
    return out


def run_selftest(n_max: int = 5, trials: int = 100, seed: int = 0):
    """Run every suite; returns (report, timings) where report is a
    deterministic JSON-ready dict and timings maps suite name to seconds."""
    suites = [
        ("schur-orthogonality", lambda: suite_schur(n_max)),
        ("character-orthogonality", lambda: suite_characters(n_max)),
        ("twisted-character-identity", lambda: suite_twisted_identity(n_max)),
        ("wfs-povm", lambda: suite_wfs(min(n_max, 4))),
        ("gpe-kraus", lambda: suite_gpe(min(n_max, 3 if n_max < 4 else 4))),
        ("kronecker-routes", lambda: suite_kronecker(n_max, seed)),
        ("lightning-distribution", lambda: suite_lightning(n_max)),
        ("vectorization", lambda: suite_vectorization(seed)),
        ("entangled-subspaces", lambda: suite_entangled(n_max, seed)),
        ("verifier", lambda: suite_verifier(n_max, trials, seed)),
    ]
    results = []
    timings = {}
    for name, runner in suites:
        start = time.perf_counter()
        results.append(runner().to_json())
        timings[name] = time.perf_counter() - start
    report = {
        "n_max": n_max,
        "trials": trials,
        "seed": seed,
        "suites": results,
        "all_passed": all(r["failed"] == 0 for r in results),
    }
    return report, timings
