"""The internal-state test, the full two-step verification algorithm, its
acceptance operator, and Monte-Carlo certification of the robustness
bounds.  The operator A = Gamma (I + W) Gamma / 2 is held as the irrep
blocks of the lambda component alone.  Its three levels 1, 1/2 and 0 have
counts that only the Kronecker coefficient m, d_lambda and D fix
(acceptance_levels), and completeness and soundness follow from them.
Every command reads the internal test from the blocks in closed form,
a = <X, E(X)> = d_lambda ||t||^2, and reports the circuit's 1/2 + 1/2 a.
Only the self-test and the tests average over the group.

Certification builds no block and forms no state.  Every report is a
function of a trial state's weights w1, w_half and w0 on A's three levels,
so a trial draws those three numbers (_trial_weights).  For a Haar state
G/||G||, G has iid N + iN coordinates in an eigenbasis of A, so the
weights are independent chi-squares with twice each level's count as
degrees of freedom, over their total: exact in distribution.  A
perturbation's center is a unit vector of level 1 and shifts only w1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .characters import multiplicities
from .errors import InvalidArgumentError, require_bytes
from .entangled import unvec
from .symgroup import Partition, irrep_dimension
from .wfs import block_columns, by_columns, isotypic_block_basis, norm_sq, sample_wfs, seeded
from .yyrep import GroupRep, tensor_rep, turn

BOUND_SLACK = 1e-8
# Python memory per test report, measured through the CLI's JSON output.
REPORT_BYTES = 1300
# A trial's gamma draw for a level of count k forms 2 k - 1 and returns about 2 k,
# and the draws' total stays near twice the counts': a quarter of the float range
# keeps all of them finite.
MAX_LEVEL_COUNT = float(np.finfo(float).max) / 4


def acceptance_levels(m: int, d_lam: int, d: int) -> tuple[tuple[float, int], ...]:
    """A's spectrum as descending (eigenvalue, count) pairs for a label of
    multiplicity m and dimension d_lambda in sigma of dimension D: 1 (m^2
    times), 1/2 (m d_lambda D - m^2 times) and 0 (D^2 - m d_lambda D times)."""
    return (1.0, m * m), (0.5, m * d_lam * d - m * m), (0.0, d * (d - m * d_lam))


def block_traces(blocks: np.ndarray, z: np.ndarray) -> np.ndarray:
    """t = T/d_lambda for the m x d_lambda x D blocks B^T and Z = B^T X:
    T_ab = tr(B_a^T X B_b) = <vec Z_a, vec B_b^T>, Z_a the rows of block a."""
    m, d_lam, dim = blocks.shape
    flat = blocks.reshape(m, d_lam * dim)
    return by_columns(flat, z.reshape(flat.shape).T).T / d_lam


@dataclass(frozen=True)
class AcceptanceOperator:
    """Acceptance operator Gamma (I + W)/2 Gamma of the two-step verifier in
    closed form, held as the m aligned irrep blocks B_a of the lambda
    component, as the builder returns them (B^T, read-only, m x d_lambda x
    D); vec(B_a B_b^T)/sqrt(d_lambda) span its eigenvalue 1."""

    blocks: np.ndarray
    c = 1.0  # completeness: the witness is accepted with certainty

    @property
    def levels(self) -> tuple[tuple[float, int], ...]:
        """The spectrum as descending (eigenvalue, count) pairs."""
        return acceptance_levels(*self.blocks.shape)

    @property
    def s(self) -> float:
        """Soundness: the largest eigenvalue below 1."""
        return 0.5 if self.levels[1][1] else 0.0

    def _split(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float]:
        """Gamma X = B Z, t = T/d_lambda, ||Z - K B^T||^2 and ||X - P X||_F for
        Z = B^T X and K = t x I: X - P X is the orthogonal sum of X - Gamma X
        and B (Z - K B^T), each formed explicitly.  Row a of K B^T is sum_b
        T_ab vec(B_b^T), the vec(B_b^T) taken as the columns of a C-ordered
        copy.  Each product goes through by_columns, whose bits do not
        depend on the BLAS thread count."""
        m, d_lam, d = self.blocks.shape
        z = by_columns(self.blocks.reshape(m * d_lam, d), x)
        t = block_traces(self.blocks, z)
        k_bt = by_columns(np.ascontiguousarray(self.blocks.reshape(m, d_lam * d).T), t.T).T
        inner = norm_sq(z - k_bt.reshape(z.shape))
        gamma = by_columns(block_columns(self.blocks), z)
        del z, k_bt
        return gamma, t, inner, math.sqrt(norm_sq(x - gamma) + inner)

    def distance_to(self, psi: np.ndarray) -> float:
        """||X - P X||_F for psi = vec X, P onto the eigenvalue-1 space, summed from
        explicit residuals: never ||psi||^2 - ||P psi||^2, which cancels near it."""
        return self._split(unvec(psi, self.blocks.shape[2]))[3]


@dataclass(frozen=True)
class TestReport:
    acceptance_probability: float
    epsilon: float
    distance_to_target: float
    bound: float
    bound_satisfied: bool

    @staticmethod
    def build(acceptance: float, distance: float, factor: float) -> "TestReport":
        """The report of a robustness bound factor sqrt(2 eps), eps = 1 - acceptance."""
        bound = factor * math.sqrt(2.0 * (1.0 - acceptance))
        return TestReport(
            acceptance_probability=acceptance,
            epsilon=1.0 - acceptance,
            distance_to_target=distance,
            bound=bound,
            bound_satisfied=distance <= bound + BOUND_SLACK,
        )


@dataclass(frozen=True)
class CertificationTrial:
    """Per-trial reports: the full-verifier bound and the internal-test
    bound on the post-sampling state.  A degenerate trial's state has
    sampling probability below 1e-14; its theorem report is a placeholder
    with distance 0."""

    corollary: TestReport
    theorem: TestReport
    degenerate: bool = False


def channel_E(rep: GroupRep, x: np.ndarray) -> np.ndarray:
    """Group average (1/|G|) sum_g rep(g) X rep(g)^T; the orthogonal
    projection onto the commutant of rep: a test oracle no command calls.

    S_k is the disjoint union of the cosets (j k) S_{k-1}, j <= k, so the
    average is Y <- (Y + sum_{j<k} t_jk Y t_jk) / k for k = 2..n from
    Y = X, with t_jk = rep((j k)): n(n-1)/2 conjugations, each two turns,
    and no stack.  rep is real, so Y is held as the pair of its real and
    imaginary parts."""
    x = np.asarray(x, dtype=complex)
    d = rep.dim
    if x.shape != (d, d):
        raise InvalidArgumentError(f"X must be {d} x {d}, got {x.shape}")
    _require_average(rep)
    y = np.stack([x.real, x.imag])
    for k in range(2, rep.n + 1):
        y = sum((turn(rep, (j, k), turn(rep, (j, k), y)) for j in range(1, k)), y) / k
    return y[0] + 1j * y[1]


def _require_average(rep: GroupRep, arrays: int = 12, what: str = "the coset-tower average"):
    # The oracles' price: arrays real D x D arrays (the average's 12 by tracemalloc: complex X,
    # Y, the sum, a conjugation's 3 products) and, but on a tensor, the n(n-1)/2 images turn reads.
    images = 0 if rep.kind == "tensor" else rep.n * (rep.n - 1) // 2
    require_bytes((arrays + images) * rep.dim**2 * 8, f"{what} of S_{rep.n} at D = {rep.dim}")


def _formula_value(rep: GroupRep, x: np.ndarray) -> float:
    """1/2 + 1/2 Re<X, E(X)>_F: the internal test's acceptance probability
    on vec X, with E through the coset tower: a test oracle."""
    return 0.5 + 0.5 * complex(np.vdot(x, channel_E(rep, x))).real


def _circuit_value(rep: GroupRep, x: np.ndarray) -> float:
    """The internal test's acceptance on vec X, simulated exactly: qubit x
    control x target, Hadamard, controlled-U, Hadamard, then P(0).  Control
    block g of the |0> branch is (X + rep(g) X rep(g)^T) / (2 sqrt|G|).

    Every g is c_n ... c_2 with c_k = e or (j k), j < k, so the walk goes
    down that coset tree depth first: a child conjugates its parent's Y
    by turning it twice, as channel_E does, and each leaf adds
    ||X + Y||_F^2 in a fixed order.  The value stays a sum over elements,
    independent of channel_E's average, and no stack is built.  A test
    oracle for the value that `verify run` reads from the irrep blocks."""
    n = rep.n
    # n + 2 pairs of D x D arrays (tracemalloc): X, a Y per lower level, the leaf and its square.
    _require_average(rep, 2 * n + 4, "the coset-tree walk")
    x2 = np.stack([x.real, x.imag])

    def walk(y: np.ndarray, k: int) -> float:
        if k > n:
            return norm_sq(x2 + y)
        total = walk(y, k + 1)
        for j in range(1, k):
            total += walk(turn(rep, (j, k), turn(rep, (j, k), y)), k + 1)
        return total

    return walk(x2, 2) / (4 * math.factorial(n))


def internal_test_probability(rep: GroupRep, psi: np.ndarray) -> tuple[float, float]:
    """Acceptance probability 1/2 + 1/2 Re<X, E(X)>_F of the internal-state
    test on psi = vec X, by two independent routes: formula_value through
    channel_E's coset tower, circuit_value by simulating the 1-bit
    phase-estimation circuit with U = sum_g |g><g| tensor rep(g) tensor
    rep(g)*, one control block per group element down the coset tree.
    Neither builds rep's stack, and no command reads either: commands take
    <X, E(X)> in closed form from the irrep blocks."""
    x = unvec(psi, rep.dim)
    circuit = _circuit_value(rep, x)  # its walk is priced first
    return _formula_value(rep, x), circuit


def internal_acceptance(traces: np.ndarray, d: int, p: float = 1.0) -> float:
    """The internal test's 1/2 + 1/2 a, a = d ||t||^2 / p for t = T/d of a state
    of weight p: a <= 1 exactly, E being an orthogonal projection and the
    post-state a unit vector, so rounding is clamped."""
    return 0.5 + 0.5 * min(d * norm_sq(traces) / p, 1.0)


def verification_acceptance_operator(
    mu: Partition, nu: Partition, lam: Partition
) -> AcceptanceOperator:
    """Acceptance operator Gamma (I + W)/2 Gamma of the two-step verifier
    for sigma = rho^mu tensor rho^nu, Gamma = Xi_lambda tensor I.  By Schur's
    lemma W projects onto the commutant, the sum of M_m tensor I_d, and
    commutes with Gamma, so the operator is fixed by the irrep blocks B_a of
    the lambda component, which the block builder checks: B B^T = Xi_lambda,
    which is not built."""
    return AcceptanceOperator(isotypic_block_basis(tensor_rep(mu, nu), lam))


def _trial_weights(counts: tuple[int, int, int], perturbation: float | None,
                   seed: int) -> tuple[float, float, float]:
    """One trial state's weights (w1, w_half, w0) on levels of these counts,
    summing to 1, drawn from the standard library's Random(seed) in this
    order: for a perturbed trial the real and then the imaginary part of g
    (gauss), then one chi-square per level of nonzero degrees of freedom,
    level 1 first, as gammavariate(k, 2), the chi-square with 2 k degrees
    of freedom.  A Haar state's weights are those chi-squares, one per
    level of count k, over their total.  A perturbed state is the center
    plus perturbation times G, normalized, for a unit center of level 1:
    its w1 is |1 + perturbation g|^2 plus perturbation^2 times a chi-square
    with 2 (k1 - 1) degrees of freedom, g one N + iN coordinate, and the
    other weights are Haar's times perturbation^2."""
    if sum(counts) > MAX_LEVEL_COUNT:
        raise InvalidArgumentError("a trial state's level counts exceed the float range")
    rng = seeded(seed)
    perturbed = perturbation is not None
    g = (rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) if perturbed else None
    # A perturbed trial's center direction holds g in place of two degrees of freedom.
    weights = [rng.gammavariate(k, 2.0) if k else 0.0 for k in (counts[0] - perturbed, *counts[1:])]
    if perturbed:  # products, not **: a float overflows to inf, which is rejected below
        re, im = 1.0 + perturbation * g[0], perturbation * g[1]
        weights = [perturbation * perturbation * w for w in weights]
        weights[0] += re * re + im * im
    total = sum(weights)
    if not math.isfinite(total):
        raise InvalidArgumentError(f"perturbation {perturbation} overflows the trial state")
    return weights[0] / total, weights[1] / total, weights[2] / total


def certify_lemma_bound(shape: Partition, multiplicity: int, trials: int, seed: int,
                        perturbation: float | None = None) -> list[TestReport]:
    """Certify the internal-test robustness bound for sigma = I_m tensor
    rho^shape, m the multiplicity, which is not built: for seeded random
    states, the distance to the product target subspace span vec(A tensor
    I_d1)/sqrt(d1) is at most 2 sqrt(2 eps).

    By Schur's lemma that span is the commutant of sigma, onto which E
    projects, and the internal test accepts with 1/2 + 1/2 <X, E(X)>: its
    operator (I + W)/2 has level 1 on the span's m^2 dimensions, 1/2 on the
    other m^2 (d1^2 - 1) and no level 0.  So a trial reads only its weights
    w1 and w_half: acceptance 1/2 + 1/2 w1, and distance^2 the weight off
    the span, w_half = 1 - w1 = 2 eps.  With perturbation set, trial states
    are normalized perturbations of the maximally entangled state
    I/sqrt(m d1), a unit vector of the span, at that scale instead of
    Haar-random states.
    """
    if multiplicity < 1:
        raise InvalidArgumentError(f"multiplicity must be positive, got {multiplicity}")
    d1 = irrep_dimension(shape)
    require_bytes(trials * REPORT_BYTES, f"the reports of {trials} trials")
    m = multiplicity
    counts = (m * m, m * m * (d1 * d1 - 1), 0)
    reports = []
    for t in range(trials):
        w1, half, _ = _trial_weights(counts, perturbation, seed + t)
        reports.append(TestReport.build(0.5 + 0.5 * w1, math.sqrt(half), 2.0))
    return reports


def certify_corollary_bound(mu: Partition, nu: Partition, lam: Partition, trials: int, seed: int,
                            perturbation: float | None = None) -> list[CertificationTrial]:
    """Certify the full-verifier robustness bound for sigma = rho^mu tensor
    rho^nu: distance from a trial state to the accepting eigenspace is at
    most 3 sqrt(2 eps), where 1 - eps is the product of the sampling and
    internal-test acceptance probabilities; the post-sampling state also
    satisfies the 2 sqrt(2 eps') internal-test bound.

    A trial reads only its weights w1, w_half and w0 on A's levels 1, 1/2
    and 0, whose counts come from the characters' m, d_lambda and D: no
    block is built.  Sampling lambda projects onto levels 1 and 1/2, so p =
    w1 + w_half, and the post-sampling state's internal test accepts with
    1/2 + 1/2 w1/p, its weight on the commutant.  So the corollary's
    acceptance is <psi|A|psi> = (p + w1)/2, its distance^2 the explicit sum
    w_half + w0, never 1 - w1, and the theorem's distance^2 w_half/p.
    Perturbed trials center on vec(B B^T)/sqrt(m d_lambda), a unit vector
    of level 1.
    """
    require_bytes(2 * trials * REPORT_BYTES, f"the reports of {trials} trials")
    sigma = tensor_rep(mu, nu)
    m = multiplicities(sigma).get(lam, 0)  # a lam of another degree has m = 0 too
    if m < 1:
        raise InvalidArgumentError(
            f"({mu};{nu};{lam}) has Kronecker coefficient 0; nothing to certify"
        )
    counts = tuple(count for _, count in acceptance_levels(m, irrep_dimension(lam), sigma.dim))
    trials_out = []
    for t in range(trials):
        w1, half, zero = _trial_weights(counts, perturbation, seed + t)
        p_sample = min(w1 + half, 1.0)  # rounding is clamped
        distance = math.sqrt(half + zero)
        if p_sample < 1e-14:
            trials_out.append(CertificationTrial(TestReport.build(0.0, distance, 3.0),
                                                 TestReport.build(0.0, 0.0, 2.0), degenerate=True))
            continue
        corollary = TestReport.build((p_sample + w1) / 2, distance, 3.0)
        theorem = TestReport.build(0.5 + 0.5 * min(w1 / p_sample, 1.0),
                                   math.sqrt(half / p_sample), 2.0)
        trials_out.append(CertificationTrial(corollary=corollary, theorem=theorem))
    return trials_out


def run_verifier_sampled(mu: Partition, nu: Partition, lam: Partition, psi: np.ndarray,
                         seed: int) -> dict:
    """End-to-end sampled run of the two-step verifier: weak Fourier
    sampling on the left register, then a coin flip at the internal test's
    1/2 + 1/2 d_lambda ||t||^2, t read from the sampled label's blocks and the
    post-state's coordinates Z / sqrt(p), with no post-state formed."""
    sigma = tensor_rep(mu, nu)
    # unvec admits only a state of the register pair C^D x C^D.
    label, blocks, z, p = sample_wfs(sigma, unvec(psi, sigma.dim).reshape(-1), seed)
    if label != lam:
        return {"accepted": False, "measured": str(label), "stage": "weak-fourier-sampling"}
    # by_columns' copy of Z's two parts and more (tracemalloc: 2.0-3.1 Z at D = 30-210).
    require_bytes(4 * z.size * 8, f"the internal test's split at D = {sigma.dim}")
    acceptance = internal_acceptance(block_traces(blocks, z), blocks.shape[1], p)
    coin = seeded(seed + 1).random()  # seed itself was checked by sample_wfs
    return {"accepted": bool(coin < acceptance), "measured": str(label),
            "stage": "internal-state-test", "internal_acceptance_probability": acceptance}
