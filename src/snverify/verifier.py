"""The internal-state test, the full two-step verification algorithm, its
acceptance operator and spectrum, and Monte-Carlo certification of the
robustness bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericalConsistencyError, ResourceLimitError
from .entangled import Subspace, orthonormalize, unvec, vec
from .kronecker import kronecker_coefficient
from .symgroup import Partition
from .wfs import wfs_projector
from .yyrep import GroupRep, rep_stack, tensor_rep

BOUND_SLACK = 1e-8
EIGEN_ONE_TOL = 1e-8
# Largest control-times-target statevector we will simulate.
STATEVECTOR_ENTRY_CAP = 1 << 22


@dataclass(frozen=True)
class AcceptanceOperator:
    """Hermitian acceptance operator of the two-step verifier, with its
    spectrum and the measured completeness/soundness split."""

    matrix: np.ndarray
    spectrum: np.ndarray  # real eigenvalues, descending
    c: float
    s: float

    def accepting_subspace(self) -> Subspace:
        evals, evecs = np.linalg.eigh(self.matrix)
        keep = [k for k in range(len(evals)) if evals[k] > 1.0 - EIGEN_ONE_TOL]
        dim = self.matrix.shape[0]
        if not keep:
            return Subspace(ambient_dim=dim, basis=np.zeros((dim, 0), dtype=complex))
        return Subspace(ambient_dim=dim, basis=orthonormalize(evecs[:, keep]))


@dataclass(frozen=True)
class TestReport:
    acceptance_probability: float
    epsilon: float
    distance_to_target: float
    bound: float
    bound_satisfied: bool

    @staticmethod
    def build(acceptance: float, distance: float, bound: float) -> "TestReport":
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


def _conjugated(rep: GroupRep, x: np.ndarray) -> np.ndarray:
    """rep(k) X rep(k)^dagger for every k, as a |G| x D x D array.  The
    complex conjugates are taken of the temporaries, in place, so the
    stack itself is never copied."""
    stack = rep_stack(rep)
    out = stack @ x
    np.conj(out, out=out)
    out = out @ stack.transpose(0, 2, 1)
    return np.conj(out, out=out)


def channel_E(rep: GroupRep, x: np.ndarray) -> np.ndarray:
    """Group average (1/|G|) sum_k rep(k) X rep(k^-1); the orthogonal
    projection onto the commutant of the representation."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (rep.dim, rep.dim):
        raise InvalidArgumentError(f"X must be {rep.dim} x {rep.dim}, got {x.shape}")
    blocks = _conjugated(rep, x)
    return blocks.sum(axis=0) / len(blocks)


def commutant_projector(rep: GroupRep) -> np.ndarray:
    """Projector W = (1/|G|) sum_k rep(k) tensor rep(k)* on C^{D^2}; the
    vectorized form of channel_E, cached on the representation."""
    cached = rep._povm_cache.get("commutant")
    if cached is not None:
        return cached
    d = rep.dim
    flat = rep_stack(rep).reshape(-1, d * d)
    # Entry ((a, c), (b, d)) is sum_k rep(k)_ac rep(k)*_bd; W wants ((a, b), (c, d)).
    w = flat.T @ flat.conj()
    w /= len(flat)
    w = w.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    w = (w + w.conj().T) / 2
    w.setflags(write=False)
    rep._povm_cache["commutant"] = w
    return w


def internal_test_probability(rep: GroupRep, psi: np.ndarray) -> tuple[float, float]:
    """Acceptance probability of the internal-state test, two ways.

    formula_value is 1/2 + 1/2 |<X, E(X)>_F|^2 with psi = vec X;
    circuit_value is an exact statevector simulation of the 1-bit
    phase-estimation circuit with control dimension |G| and
    U = sum_k |k><k| tensor rep(k) tensor rep(k)*, giving
    1/2 + 1/2 Re<tau|U|tau>.
    """
    d = rep.dim
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (d * d,):
        raise InvalidArgumentError(f"state must live on C^{d * d}, got {psi.shape}")
    size = math.factorial(rep.n)
    if size * d * d > STATEVECTOR_ENTRY_CAP:
        raise ResourceLimitError(
            f"statevector of {size} * {d}^2 = {size * d * d} entries exceeds the "
            f"simulation cap {STATEVECTOR_ENTRY_CAP}"
        )
    x = unvec(psi, d)
    overlap = complex(np.vdot(x, channel_E(rep, x)))
    formula_value = 0.5 + 0.5 * abs(overlap) ** 2

    # Exact simulation: qubit tensor control tensor target, Hadamard /
    # controlled-U / Hadamard, then the probability of measuring 0.  The
    # control starts uniform, so control block k of the |0> branch is
    # (X + rep(k) X rep(k)^dagger) / (2 sqrt|G|).
    out0 = _conjugated(rep, x)
    out0 += x
    out0 /= 2 * math.sqrt(size)
    # np.sum rather than np.linalg.norm: the BLAS dot behind the norm splits
    # its sum by thread count, so its last bits depend on OPENBLAS_NUM_THREADS.
    circuit_value = float(np.sum(out0.real**2 + out0.imag**2))
    return formula_value, circuit_value


def verification_acceptance_operator(
    mu: Partition, nu: Partition, lam: Partition
) -> AcceptanceOperator:
    """Acceptance operator of the two-step verifier for sigma = rho^mu
    tensor rho^nu: project onto the post-sampling subspace, then apply the
    internal-test operator (I + W)/2, projected back.
    """
    if not mu.n == nu.n == lam.n:
        raise InvalidArgumentError(f"partitions must share n: {mu}, {nu}, {lam}")
    sigma = tensor_rep(mu, nu)
    d = sigma.dim
    if (d * d) ** 2 > STATEVECTOR_ENTRY_CAP * 4:
        raise ResourceLimitError(
            f"acceptance operator would be {d * d} x {d * d}; exceeds the dense cap"
        )
    xi = wfs_projector(sigma, lam)
    gamma = np.kron(xi.matrix, np.eye(d, dtype=complex))
    w = commutant_projector(sigma)
    t = (np.eye(d * d, dtype=complex) + w) / 2
    a = gamma @ t @ gamma
    a = (a + a.conj().T) / 2
    evals = np.linalg.eigvalsh(a)[::-1]
    if evals[0] > 1.0 + EIGEN_ONE_TOL or evals[-1] < -EIGEN_ONE_TOL:
        raise NumericalConsistencyError(
            f"acceptance spectrum leaves [0, 1]: [{evals[-1]}, {evals[0]}]"
        )
    below_one = evals[evals < 1.0 - EIGEN_ONE_TOL]
    s = float(below_one[0]) if below_one.size else 0.0
    interior = evals[(evals > s + EIGEN_ONE_TOL) & (evals < 1.0 - EIGEN_ONE_TOL)]
    if interior.size:
        raise NumericalConsistencyError(
            f"eigenvalues inside the (s, c) gap: {interior.tolist()}"
        )
    m = kronecker_coefficient(mu, nu, lam).value
    has_one = evals[0] > 1.0 - EIGEN_ONE_TOL
    if has_one != (m >= 1):
        raise NumericalConsistencyError(
            f"eigenvalue-1 presence ({has_one}) contradicts m = {m}"
        )
    return AcceptanceOperator(matrix=a, spectrum=evals, c=1.0, s=s)


def haar_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def product_target_subspace(m: int, d1: int) -> Subspace:
    """Span of vec(A tensor I_{d1}/sqrt(d1)) over A in C^{m x m}: the
    states the internal test characterizes for sigma = I_m tensor irrep."""
    cols = []
    scaled_identity = np.eye(d1) / math.sqrt(d1)
    for a in range(m):
        for b in range(m):
            unit = np.zeros((m, m))
            unit[a, b] = 1.0
            cols.append(vec(np.kron(unit, scaled_identity)))
    return Subspace(ambient_dim=(m * d1) ** 2, basis=np.column_stack(cols))


def certify_lemma_bound(
    rep: GroupRep,
    trials: int,
    seed: int,
    perturbation: float | None = None,
) -> list[TestReport]:
    """Certify the internal-test robustness bound for sigma = I_m tensor
    irrep: for seeded random states, the distance to the product target
    subspace is at most 2 sqrt(2 eps).

    With perturbation set, trial states are normalized perturbations of the
    maximally entangled state at that scale instead of Haar-random states.
    """
    if rep.kind == "irrep":
        m, d1 = 1, rep.dim
    elif rep.kind == "identity-times-irrep":
        m, d1 = rep.lift_dim, rep.base.dim
    else:
        raise InvalidArgumentError(
            "lemma certification needs an irrep or identity-times-irrep representation"
        )
    d = rep.dim
    target = product_target_subspace(m, d1)
    center = vec(np.eye(d)) / math.sqrt(d)
    reports = []
    for t in range(trials):
        rng = np.random.default_rng(seed + t)
        if perturbation is None:
            psi = haar_state(d * d, rng)
        else:
            raw = center + perturbation * (
                rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
            )
            psi = raw / np.linalg.norm(raw)
        acceptance, _ = internal_test_probability(rep, psi)
        distance = target.distance_to(psi)
        eps = 1.0 - acceptance
        reports.append(TestReport.build(acceptance, distance, 2.0 * math.sqrt(2.0 * eps)))
    return reports


def certify_corollary_bound(
    mu: Partition,
    nu: Partition,
    lam: Partition,
    trials: int,
    seed: int,
    perturbation: float | None = None,
) -> list[CertificationTrial]:
    """Certify the full-verifier robustness bound for sigma = rho^mu tensor
    rho^nu: distance from a trial state to the accepting eigenspace is at
    most 3 sqrt(2 eps), where 1 - eps is the product of the sampling and
    internal-test acceptance probabilities; the post-sampling state also
    satisfies the 2 sqrt(2 eps') internal-test bound.
    """
    m = kronecker_coefficient(mu, nu, lam).value
    if m < 1:
        raise InvalidArgumentError(
            f"({mu};{nu};{lam}) has Kronecker coefficient 0; nothing to certify"
        )
    sigma = tensor_rep(mu, nu)
    d = sigma.dim
    op = verification_acceptance_operator(mu, nu, lam)
    accepting = op.accepting_subspace()
    xi = wfs_projector(sigma, lam)
    gamma = np.kron(xi.matrix, np.eye(d, dtype=complex))
    center = vec(np.asarray(xi.matrix)) / math.sqrt(xi.rank)
    trials_out = []
    for t in range(trials):
        rng = np.random.default_rng(seed + t)
        if perturbation is None:
            psi = haar_state(d * d, rng)
        else:
            raw = center + perturbation * (
                rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
            )
            psi = raw / np.linalg.norm(raw)
        projected = gamma @ psi
        p_sample = float(np.linalg.norm(projected) ** 2)
        if p_sample < 1e-14:
            corollary = TestReport.build(0.0, accepting.distance_to(psi), 3.0 * math.sqrt(2.0))
            theorem = TestReport.build(0.0, 0.0, 2.0 * math.sqrt(2.0))
            trials_out.append(
                CertificationTrial(corollary=corollary, theorem=theorem, degenerate=True)
            )
            continue
        post = projected / math.sqrt(p_sample)
        p_internal, _ = internal_test_probability(sigma, post)
        total = p_sample * p_internal
        eps_total = 1.0 - total
        corollary = TestReport.build(
            total, accepting.distance_to(psi), 3.0 * math.sqrt(2.0 * eps_total)
        )
        eps_internal = 1.0 - p_internal
        theorem = TestReport.build(
            p_internal,
            accepting.distance_to(post),
            2.0 * math.sqrt(2.0 * eps_internal),
        )
        trials_out.append(CertificationTrial(corollary=corollary, theorem=theorem))
    return trials_out


def run_verifier_sampled(
    mu: Partition, nu: Partition, lam: Partition, psi: np.ndarray, seed: int
) -> dict:
    """End-to-end sampled run of the two-step verifier: weak Fourier
    sampling on the left register, then a coin flip at the internal-test
    circuit probability."""
    from .wfs import measure_wfs
    from .yyrep import lift_with_identity

    sigma = tensor_rep(mu, nu)
    lifted = lift_with_identity(sigma, sigma.dim)
    label, post = measure_wfs(lifted, psi, seed)
    if label != lam:
        return {"accepted": False, "measured": str(label), "stage": "weak-fourier-sampling"}
    _, circuit_value = internal_test_probability(sigma, post)
    coin = np.random.default_rng(seed + 1).random()
    accepted = coin < circuit_value
    return {
        "accepted": bool(accepted),
        "measured": str(label),
        "stage": "internal-state-test",
        "internal_acceptance_probability": circuit_value,
    }
