"""JSON schemas for matrices, states, projectors, and subspaces.

Complex entries serialize as [re, im] pairs at full double precision;
matrices are row-major.
"""

from __future__ import annotations

import numpy as np

from .entangled import StateVector, Subspace
from .errors import InvalidArgumentError, require_bytes
from .symgroup import Partition
from .wfs import KrausElement, Projector


def _complex_list(values: np.ndarray) -> list[list[float]]:
    values = np.asarray(values)
    # 177 B of Python objects per entry, measured on `rep ft 6`.
    require_bytes(177 * values.size, f"the JSON of {values.size} complex entries")
    flat = np.ascontiguousarray(values.reshape(-1), dtype=complex)
    return flat.view(np.float64).reshape(-1, 2).tolist()


def matrix_to_json(matrix: np.ndarray) -> dict:
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise InvalidArgumentError(f"expected a matrix, got ndim {matrix.ndim}")
    rows, cols = matrix.shape
    return {"rows": rows, "cols": cols, "data": _complex_list(matrix)}


def matrix_from_json(doc: dict) -> np.ndarray:
    try:
        rows, cols, data = doc["rows"], doc["cols"], doc["data"]
    except (KeyError, TypeError):
        raise InvalidArgumentError("matrix JSON needs rows, cols, data") from None
    if not all(isinstance(k, int) and k >= 0 for k in (rows, cols)):
        raise InvalidArgumentError("matrix JSON rows and cols must be nonnegative integers")
    try:
        flat = np.array([complex(re, im) for re, im in data])
    except (TypeError, ValueError):
        raise InvalidArgumentError("matrix JSON data needs [re, im] entry pairs") from None
    if len(flat) != rows * cols:
        raise InvalidArgumentError(f"matrix data length {len(flat)} != {rows}*{cols}")
    return flat.reshape(rows, cols)


def state_to_json(state: StateVector) -> dict:
    return {
        "registers": list(state.registers),
        "amplitudes": _complex_list(state.amplitudes),
    }


def state_from_json(doc: dict) -> StateVector:
    try:
        registers, amplitudes = doc["registers"], doc["amplitudes"]
    except (KeyError, TypeError):
        raise InvalidArgumentError("state JSON needs registers, amplitudes") from None
    try:
        amps = np.array([complex(re, im) for re, im in amplitudes])
        return StateVector(registers=tuple(registers), amplitudes=amps)
    except (TypeError, ValueError):
        raise InvalidArgumentError(
            "state JSON needs integer registers and [re, im] amplitude pairs"
        ) from None


def projector_to_json(proj: Projector, label: Partition) -> dict:
    doc = matrix_to_json(proj.matrix)
    doc["lambda"] = str(label)
    doc["rank"] = proj.rank
    return doc


def kraus_to_json(kraus: KrausElement) -> dict:
    doc = matrix_to_json(kraus.matrix)
    doc["lambda"] = str(kraus.shape_label)
    return doc


def subspace_to_json(space: Subspace) -> dict:
    return {
        "ambient_dim": space.ambient_dim,
        "dim": space.dim,
        "basis": [_complex_list(space.basis[:, k]) for k in range(space.dim)],
    }
