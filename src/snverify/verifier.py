"""The internal-state test, the full two-step verification algorithm, its
acceptance operator, and Monte-Carlo certification of the robustness
bounds.  The operator is held as the irrep blocks of the lambda component
alone: its three eigenvalue levels, completeness and soundness are read
from their shape (m, d_lambda, D), and m^2 is its eigenvalue-1 count.
Every command reads the internal test from the same blocks in closed form,
a = <X, E(X)> = d_lambda ||t||^2, and reports the circuit's 1/2 + 1/2 a:
`verify run` and certification alike.  Only the self-test and the tests
average over the group.

A certification trial forms no state.  It reads only a state's
coordinates on orthonormal vectors of the target's side, Z = B^T X over
the blocks for the corollary and the m^2 block traces T_ab/sqrt(d1) for
the lemma, and its weight off them, so it draws exactly these.  For a
Haar state X = G/||G||, G with iid N + iN entries, the coordinates of G
on any orthonormal set are again iid N + iN, and its squared norm off
them is an independent chi-square with 2 (D^2 - k) degrees of freedom
for k coordinates: drawing both and normalizing by their total is exact
in distribution.  A perturbation's center lies on the target's side, so
it shifts only the coordinates.  Each trial takes one generator,
default_rng(seed + trial), and draws in one fixed order: the real parts
of the coordinates, their imaginary parts, then the chi-square.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .characters import multiplicities
from .errors import InvalidArgumentError, require_bytes
from .entangled import unvec
from .symgroup import Partition, irrep_dimension
from .wfs import block_columns, by_columns, isotypic_block_basis, norm_sq, sample_wfs
from .yyrep import GroupRep, tensor_rep, turn

BOUND_SLACK = 1e-8
# Python memory per test report, measured through the CLI's JSON output.
REPORT_BYTES = 1300
# A certification trial's peak, by tracemalloc, in real arrays the size of
# its coordinates: the lemma's z, its traces and the squares of their norm;
# the corollary's z, coordinate_split's K B^T, its copy and the squares of
# Z - K B^T (9.0 at D = 35, and 8.0 at D = 490, where NumPy elides a
# temporary).  Beside them TRIAL_BYTES of Python objects: the generator,
# the error-state context and the reports (2.2-2.9 kB).
LEMMA_ARRAYS = 7
COROLLARY_ARRAYS = 9
TRIAL_BYTES = 3200


def block_traces(blocks: np.ndarray, z: np.ndarray) -> np.ndarray:
    """t = T/d_lambda for the m x d_lambda x D blocks B^T and Z = B^T X:
    T_ab = tr(B_a^T X B_b) = <vec Z_a, vec B_b^T>, Z_a the rows of block a."""
    m, d_lam, dim = blocks.shape
    flat = blocks.reshape(m, d_lam * dim)
    return by_columns(flat, z.reshape(flat.shape).T).T / d_lam


def coordinate_split(blocks: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, float]:
    """t = T/d_lambda and ||Z - K B^T||_F^2, K = t x I, for the m x d_lambda
    x D blocks B^T and a state's coordinates Z = B^T X: the part of B Z off
    the eigenvalue-1 space, formed explicitly, whatever X is off B's range.
    Row a of K B^T is sum_b T_ab vec(B_b^T), by by_columns, which takes
    the vec(B_b^T) as the columns of a C-ordered copy."""
    t = block_traces(blocks, z)
    m, d_lam, dim = blocks.shape
    k_bt = by_columns(np.ascontiguousarray(blocks.reshape(m, d_lam * dim).T), t.T).T
    return t, norm_sq(z - k_bt.reshape(z.shape))


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
        """The spectrum as descending (eigenvalue, count) pairs: 1 (m^2
        times), 1/2 (m d_lambda D - m^2 times) and 0 otherwise."""
        m, d_lam, d = self.blocks.shape
        half = m * d_lam * d - m * m
        return (1.0, m * m), (0.5, half), (0.0, d * d - m * m - half)

    @property
    def s(self) -> float:
        """Soundness: the largest eigenvalue below 1."""
        return 0.5 if self.levels[1][1] else 0.0

    def _split(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float]:
        """Gamma X = B Z, t, ||Z - K B^T||^2 and ||X - P X||_F for Z = B^T X: X -
        P X is the orthogonal sum of X - Gamma X and B (Z - K B^T), and t and
        the inner residual come from coordinate_split.  Each product goes
        through by_columns, whose bits do not depend on the BLAS thread count."""
        m, d_lam, d = self.blocks.shape
        z = by_columns(self.blocks.reshape(m * d_lam, d), x)
        t, inner = coordinate_split(self.blocks, z)
        gamma = by_columns(block_columns(self.blocks), z)
        del z
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


def _trial_coordinates(shape: tuple[int, int], df: int, center, perturbation: float | None,
                       seed: int) -> tuple[np.ndarray, float]:
    """One trial state's coordinates z on orthonormal vectors of the target's
    side and its squared weight off them, ||z||^2 + weight = 1, drawn from
    default_rng(seed) in this order: z's real parts, its imaginary parts,
    then the chi-square.  A Haar state is G/||G|| for G iid N + iN, whose
    coordinates are iid N + iN and whose weight off them is independent
    chi-square with df degrees of freedom; with perturbation set the state
    is center + perturbation G normalized, for a center of real coordinates
    and no weight off them."""
    rng = np.random.default_rng(seed)
    parts = rng.standard_normal((2, *shape))
    off = rng.chisquare(df) if df else 0.0
    with np.errstate(over="ignore"):  # an overflowing perturbation is rejected below
        if perturbation is not None:
            parts *= perturbation
            parts[0] += center
            off *= perturbation * perturbation
        total = norm_sq(parts) + off
    if not math.isfinite(total):
        raise InvalidArgumentError(f"perturbation {perturbation} overflows the trial state")
    parts /= math.sqrt(total)
    z = np.empty(shape, dtype=complex)
    z.real, z.imag = parts
    return z, off / total


def _require_trial(d: int, arrays: int, size: int, perturbation: float | None) -> None:
    """Price one certification trial before its coordinates are drawn:
    arrays real arrays of its size coordinates, one more that holds a
    perturbation's center, and TRIAL_BYTES."""
    arrays += perturbation is not None
    require_bytes(arrays * size * 8 + TRIAL_BYTES, f"a certification trial at D = {d}")


def certify_lemma_bound(shape: Partition, multiplicity: int, trials: int, seed: int,
                        perturbation: float | None = None) -> list[TestReport]:
    """Certify the internal-test robustness bound for sigma = I_m tensor
    rho^shape, m the multiplicity, which is not built: for seeded random
    states, the distance to the product target subspace span vec(A tensor
    I_d1)/sqrt(d1) is at most 2 sqrt(2 eps).

    By Schur's lemma that span is the commutant of sigma, onto which E
    projects: E(X) = t tensor I_d1 for psi = vec X, with t = T/d1 and T_ab =
    tr X_ab over X's d1 x d1 blocks.  So the distance is ||X - E(X)||_F, and
    the internal test accepts with 1/2 + 1/2 a, a = <X, E(X)> = d1 ||t||^2 =
    1 - distance^2 = 1 - 2 eps: no group average is taken.

    A trial reads only X's m^2 coordinates T_ab/sqrt(d1) on the span's
    orthonormal vectors and the weight off it, ||X - E(X)||^2, drawn by
    _trial_coordinates with 2 m^2 (d1^2 - 1) degrees of freedom: no state is
    formed.  With perturbation set, trial states are normalized
    perturbations of the maximally entangled state I/sqrt(d) at that scale
    instead of Haar-random states; its coordinates are delta_ab/sqrt(m).
    """
    if multiplicity < 1:
        raise InvalidArgumentError(f"multiplicity must be positive, got {multiplicity}")
    d1 = irrep_dimension(shape)
    require_bytes(trials * REPORT_BYTES, f"the reports of {trials} trials")
    m = multiplicity
    _require_trial(m * d1, LEMMA_ARRAYS, m * m, perturbation)
    center = None
    if perturbation is not None:  # I_m / sqrt(m); np.eye's fill holds 5.5 kB beside 8 m^2 B
        center = np.zeros((m, m))
        center.reshape(-1)[:: m + 1] = 1 / math.sqrt(m)
    df = 2 * m * m * (d1 * d1 - 1)
    reports = []
    for t in range(trials):
        z, off = _trial_coordinates((m, m), df, center, perturbation, seed + t)
        acceptance = internal_acceptance(z / math.sqrt(d1), d1)
        reports.append(TestReport.build(acceptance, math.sqrt(off), 2.0))
    return reports


def certify_corollary_bound(mu: Partition, nu: Partition, lam: Partition, trials: int, seed: int,
                            perturbation: float | None = None) -> list[CertificationTrial]:
    """Certify the full-verifier robustness bound for sigma = rho^mu tensor
    rho^nu: distance from a trial state to the accepting eigenspace is at
    most 3 sqrt(2 eps), where 1 - eps is the product of the sampling and
    internal-test acceptance probabilities; the post-sampling state also
    satisfies the 2 sqrt(2 eps') internal-test bound.

    A trial reads only Z = B^T X over lambda's irrep blocks B and the
    weight ||X - Gamma X||^2 off their range, drawn by _trial_coordinates
    with 2 D (D - m d_lambda) degrees of freedom: Gamma psi = vec(B Z), p =
    ||Z||^2, and coordinate_split gives t = T/d_lambda and ||Z - K B^T||^2,
    so the distance^2 is their explicit sum weight + ||Z - K B^T||^2.  The
    post-sampling state X' = B Z / sqrt(p) lies in the lambda component, so
    by Schur's lemma E(X') = sum_ab t_ab B_a B_b^T / sqrt(p), and the
    internal test accepts with 1/2 + 1/2 a, a = <X', E(X')> = d_lambda
    ||t||^2 / p: no group average is taken.  The total p (1 + a)/2 is
    <psi|A|psi>, so 2 eps = distance^2 + psi's weight on A's kernel.
    Perturbed trials center on vec(B B^T)/sqrt(m d_lambda), whose Z is B^T
    over that root.
    """
    require_bytes(2 * trials * REPORT_BYTES, f"the reports of {trials} trials")
    sigma = tensor_rep(mu, nu)
    # Priced from the characters' m, d_lambda and D before any block is built;
    # a lam of another degree has m = 0 too.
    m, d_lam, d = multiplicities(sigma).get(lam, 0), irrep_dimension(lam), sigma.dim
    if m < 1:
        raise InvalidArgumentError(
            f"({mu};{nu};{lam}) has Kronecker coefficient 0; nothing to certify"
        )
    width = m * d_lam
    _require_trial(d, COROLLARY_ARRAYS, width * d, perturbation)
    blocks = isotypic_block_basis(sigma, lam)
    rows = blocks.reshape(width, d)  # B^T
    center = None if perturbation is None else rows / math.sqrt(width)
    df = 2 * d * (d - width)
    trials_out = []
    for t in range(trials):
        z, off = _trial_coordinates(rows.shape, df, center, perturbation, seed + t)
        t_lam, inner = coordinate_split(blocks, z)
        p_sample = min(norm_sq(z), 1.0)  # Z's share of a unit vector; rounding is clamped
        del z  # not held beside the next draw
        distance = math.sqrt(off + inner)
        if p_sample < 1e-14:
            trials_out.append(CertificationTrial(TestReport.build(0.0, distance, 3.0),
                                                 TestReport.build(0.0, 0.0, 2.0), degenerate=True))
            continue
        p_internal = internal_acceptance(t_lam, d_lam, p_sample)
        corollary = TestReport.build(p_sample * p_internal, distance, 3.0)
        # The post-sampling state's Z and K are psi's over sqrt(p_sample).
        theorem = TestReport.build(p_internal, math.sqrt(inner / p_sample), 2.0)
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
    coin = np.random.default_rng(seed + 1).random()
    return {"accepted": bool(coin < acceptance), "measured": str(label),
            "stage": "internal-state-test", "internal_acceptance_probability": acceptance}
