"""Output checks for the benchmarked snverify commands.

Each check takes the command's parsed JSON document, the command's
`expect` block from workloads.json and a `Tolerance`, and raises
`Mismatch` on the first wrong field.  Exact fields (integers, labels,
booleans, ranks, multiplicities) must match exactly; floats must agree
within the absolute tolerance (relative for magnitudes above 1); matrices
are checked by invariants (P^2 = P = P^dagger, F F^dagger = I, unit norm),
never against stored copies.  Every check holds for any seed, so a
correct reordering of a sum passes and a wrong answer fails.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np


class Mismatch(Exception):
    """An output that does not satisfy its check."""


@dataclass(frozen=True)
class Tolerance:
    atol: float  # float fields and matrix invariants
    bound_slack: float  # the verifier's own slack on distance <= bound


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def _equal(actual, expected, what: str) -> None:
    _require(actual == expected, f"{what}: got {actual!r}, expected {expected!r}")


def _close(actual, expected: float, tol: Tolerance, what: str) -> None:
    _require(
        isinstance(actual, (int, float))
        and abs(actual - expected) <= tol.atol * max(1.0, abs(expected)),
        f"{what}: got {actual!r}, expected {expected!r}",
    )


def _complex_array(pairs) -> np.ndarray:
    values = np.asarray(pairs, dtype=float)
    _require(values.ndim == 2 and values.shape[1] == 2, "entries must be [re, im] pairs")
    return values[:, 0] + 1j * values[:, 1]


def _matrix(doc: dict) -> np.ndarray:
    rows, cols = doc["rows"], doc["cols"]
    flat = _complex_array(doc["data"])
    _require(flat.size == rows * cols, f"{flat.size} entries for a {rows} x {cols} matrix")
    return flat.reshape(rows, cols)


def _max_abs(a: np.ndarray) -> float:
    return float(np.abs(a).max()) if a.size else 0.0


def _check_projector(p: np.ndarray, rank: int, tol: Tolerance, what: str) -> None:
    _require(_max_abs(p @ p - p) <= tol.atol, f"{what}: P^2 != P")
    _require(_max_abs(p - p.conj().T) <= tol.atol, f"{what}: P != P^dagger")
    _close(float(np.trace(p).real), rank, tol, f"{what}: trace")


def _unit_state(doc: dict, registers: list[int], tol: Tolerance) -> np.ndarray:
    _equal(doc["registers"], registers, "registers")
    amplitudes = _complex_array(doc["amplitudes"])
    _equal(amplitudes.size, math.prod(registers), "amplitude count")
    _close(float(np.linalg.norm(amplitudes)), 1.0, tol, "state norm")
    return amplitudes


def check_povm(doc, expect, tol):
    _equal(doc["sigma"], expect["sigma"], "sigma")
    _equal(doc["dim"], expect["dim"], "dim")
    _equal(doc["ranks"], expect["ranks"], "ranks")
    _close(doc["completeness_residual"], 0.0, tol, "completeness_residual")


def check_projector(doc, expect, tol):
    _equal(doc["lambda"], expect["lambda"], "lambda")
    _equal(doc["rank"], expect["rank"], "rank")
    _equal((doc["rows"], doc["cols"]), (expect["dim"], expect["dim"]), "shape")
    _check_projector(_matrix(doc), expect["rank"], tol, "projector")


def check_exact(doc, expect, tol):
    _equal(doc, expect, "document")


def check_isotypic_state(doc, expect, tol):
    """A state vec(M) with M proportional to an isotypic projector of the
    expected rank r: then M = P / sqrt(r), so tr(M) M is that projector."""
    if "normalization" in expect:
        _close(doc["normalization"], expect["normalization"], tol, "normalization")
        doc = doc["state"]
    d = expect["dim"]
    m = _unit_state(doc, [d, d], tol).reshape(d, d)
    _check_projector(np.trace(m) * m, expect["rank"], tol, "tr(M) M")


def check_unitary(doc, expect, tol):
    _equal((doc["rows"], doc["cols"]), (expect["dim"], expect["dim"]), "shape")
    f = _matrix(doc)
    _require(_max_abs(f @ f.conj().T - np.eye(f.shape[0])) <= tol.atol, "F F^dagger != I")


def check_error(doc, expect, tol):
    _equal(sorted(doc), ["error", "status"], "error document keys")
    _equal(doc["status"], expect["status"], "status")
    _require(isinstance(doc["error"], str) and doc["error"], "empty error message")


def check_measure(doc, expect, tol):
    _require(doc["label"] in expect["support"], f"label {doc['label']!r} outside the support")
    _unit_state(doc["post_state"], [expect["dim"]], tol)


def check_spectrum(doc, expect, tol):
    """The acceptance spectrum is 1 (m^2 times), 1/2 (m d_lambda D - m^2
    times) and 0 otherwise."""
    spectrum = doc["spectrum"]
    counts = {1.0: 0, 0.5: 0, 0.0: 0}
    for value in spectrum:
        level = min(counts, key=lambda v: abs(v - value))
        _close(value, level, tol, "eigenvalue")
        counts[level] += 1
    _require(spectrum == sorted(spectrum, reverse=True), "spectrum not descending")
    _equal([counts[1.0], counts[0.5], counts[0.0]], expect["levels"], "eigenvalue counts")
    _equal(doc["eigenvalue_one_multiplicity"], expect["levels"][0], "eigenvalue_one_multiplicity")
    _equal(doc["c"], 1.0, "c")
    _close(doc["s"], 0.5 if counts[0.5] else 0.0, tol, "s")


def _check_reports(reports, factor, floor, tol, what):
    """distance <= factor sqrt(2 eps) with eps = 1 - acceptance, and the
    acceptance probability in [floor, 1]."""
    for k, r in enumerate(reports):
        where = f"{what}[{k}]"
        p = r["acceptance_probability"]
        _require(floor - tol.atol <= p <= 1.0 + tol.atol, f"{where}: acceptance {p} out of range")
        _close(r["epsilon"], 1.0 - p, tol, f"{where}.epsilon")
        _close(r["bound"], factor * math.sqrt(2.0 * max(r["epsilon"], 0.0)), tol, f"{where}.bound")
        _equal(r["bound_satisfied"], True, f"{where}.bound_satisfied")
        _require(r["distance_to_target"] <= r["bound"] + tol.bound_slack, f"{where}: distance > bound")


def check_certify(doc, expect, tol):
    trials = expect["trials"]
    _equal((doc["trials"], doc["seed"], doc["violations"]), (trials, expect["seed"], 0),
           "(trials, seed, violations)")
    _equal((len(doc["corollary_reports"]), len(doc["theorem_reports"])), (trials, trials),
           "report counts")
    _check_reports(doc["corollary_reports"], 3.0, 0.0, tol, "corollary_reports")
    _check_reports(doc["theorem_reports"], 2.0, 0.5, tol, "theorem_reports")


def check_certify_lemma(doc, expect, tol):
    trials = expect["trials"]
    _equal((doc["trials"], doc["seed"], doc["violations"], len(doc["reports"])),
           (trials, expect["seed"], 0, trials), "(trials, seed, violations, reports)")
    _check_reports(doc["reports"], 2.0, 0.5, tol, "reports")


def check_verify_run(doc, expect, tol):
    _require(doc["measured"] in expect["support"], f"label {doc['measured']!r} outside the support")
    _require(isinstance(doc["accepted"], bool), "accepted is not a boolean")
    if doc["stage"] == "weak-fourier-sampling":
        _require(doc["measured"] != expect["lambda"] and not doc["accepted"],
                 "rejected at sampling with the target label")
        return
    _equal((doc["stage"], doc["measured"]), ("internal-state-test", expect["lambda"]), "stage")
    p = doc["internal_acceptance_probability"]
    _require(0.5 - tol.atol <= p <= 1.0 + tol.atol, f"internal acceptance {p} out of range")


def check_lightning(doc, expect, tol):
    _equal(list(doc), list(expect["distribution"]), "labels")
    for label, prob in expect["distribution"].items():
        _close(doc[label], prob, tol, f"P{label}")
    _close(math.fsum(doc.values()), 1.0, tol, "total probability")


CHECKS = {
    "povm": check_povm,
    "projector": check_projector,
    "exact": check_exact,
    "isotypic-state": check_isotypic_state,
    "unitary": check_unitary,
    "error": check_error,
    "measure": check_measure,
    "spectrum": check_spectrum,
    "certify": check_certify,
    "certify-lemma": check_certify_lemma,
    "verify-run": check_verify_run,
    "lightning": check_lightning,
}


def check_output(kind: str, stdout: bytes, expect: dict, tol: Tolerance) -> None:
    """Parse stdout as exactly one JSON document and run the named check.
    Any malformed or missing field is a Mismatch."""
    try:
        CHECKS[kind](json.loads(stdout), expect, tol)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        raise Mismatch(f"{type(exc).__name__}: {exc}") from None
