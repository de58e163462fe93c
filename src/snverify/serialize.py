"""JSON schemas for matrices, states and projectors, and the one writer
of the CLI's output.

Complex entries serialize as [re, im] pairs at full double precision;
matrices are row-major.  A document holds each complex array as a
ComplexArray, one contiguous complex128 vector, never as one Python
object per entry.  dumps(doc) returns exactly json.dumps of the document
with every holder replaced by its tolist(), but writes each array from
one text per distinct entry: entries are grouped by their 128-bit
pattern (so -0.0, 0.0 and each NaN keep their own text), json.dumps
encodes the distinct pairs once, and the pieces of that text are
gathered by the inverse index and joined.  The Fourier transform of S_6,
518,400 entries of 5,082 distinct values, is written in 0.2 s against
1.4 s for json.dumps of its pairs; 518,400 all-distinct entries take
1.3 times as long as json.dumps of theirs.

The price is one constant per entry, ENTRY_BYTES, charged before the
holder is built.  It covers the worst case, all-distinct entries with the
longest float texts; on the transform of S_6 the peak is 74 B per entry.
"""

from __future__ import annotations

import json

import numpy as np

from .entangled import StateVector
from .errors import InvalidArgumentError, require_bytes
from .symgroup import Partition
from .wfs import Projector

# Peak bytes per entry of a holder and its text(), measured with tracemalloc
# on 518,400 all-distinct entries whose floats print 22.7 characters on
# average: 239 B.  Floats of 24 characters, the longest, would add 5 B.
ENTRY_BYTES = 256

# Peak bytes per byte of a state file while json.load parses it and
# state_from_json makes its pairs one array, by tracemalloc on 44,100 to
# 10^6 pairs: 4.0-4.1 on Haar states, 19.3 on [0.0,0.0] pairs and 24.1 on
# [0,0], the shortest pair text, whose ints NumPy converts once more.
STATE_FILE_FACTOR = 25

# A JSON string that stands for one array while the document is encoded:
# argv cannot carry NUL, and no payload string is exactly "\x00".
_HOLE = "\x00"
_HOLE_TEXT = json.dumps(_HOLE)


def require_json(entries: int, what: str) -> None:
    """Refuse the JSON of `what`, an array of `entries` complex entries,
    when it would exceed the byte budget."""
    require_bytes(ENTRY_BYTES * entries, f"the JSON of {what}")


class ComplexArray:
    """A complex array bound for JSON as its list of [re, im] pairs."""

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray):
        self.values = np.ascontiguousarray(np.ravel(values), dtype=complex)

    def tolist(self) -> list[list[float]]:
        return self.values.view(np.float64).reshape(-1, 2).tolist()

    def text(self) -> str:
        """json.dumps(self.tolist()), from one text per distinct entry.
        Each intermediate is dropped before the next is built."""
        size = self.values.size
        if size == 0:
            return "[]"
        words = self.values.view(np.uint64).reshape(size, 2)
        order = np.lexsort((words[:, 1], words[:, 0]))
        ranked = words[order]
        starts = np.empty(size, dtype=bool)  # first of its run of equal bits
        starts[0] = True
        np.any(ranked[1:] != ranked[:-1], axis=1, out=starts[1:])
        del ranked
        inverse = np.empty(size, dtype=np.intp)
        inverse[order] = np.cumsum(starts) - 1
        pairs = self.values[order[starts]].view(np.float64).reshape(-1, 2).tolist()
        del order, starts
        encoded = json.dumps(pairs)
        del pairs
        pieces = encoded.split("], [")
        del encoded
        pieces[0] = pieces[0][2:]  # drop "[[", and "]]" below: one piece may be both
        pieces[-1] = pieces[-1][:-2]
        gathered = np.array(pieces, dtype=object)[inverse].tolist()
        del pieces, inverse
        return "[[" + "], [".join(gathered) + "]]"


def dumps(payload) -> str:
    """json.dumps(payload), byte for byte, with each ComplexArray written
    as its list of [re, im] pairs by its text()."""
    arrays = []

    def hole(obj):
        if not isinstance(obj, ComplexArray):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        arrays.append(obj)
        return _HOLE

    head, *tails = json.dumps(payload, default=hole).split(_HOLE_TEXT)
    pieces = [head]
    for array, tail in zip(arrays, tails):
        pieces += (array.text(), tail)
    return "".join(pieces)


def _complex_list(values: np.ndarray) -> ComplexArray:
    entries = np.size(values)
    require_json(entries, f"{entries} complex entries")
    return ComplexArray(values)


def matrix_to_json(matrix: np.ndarray) -> dict:
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise InvalidArgumentError(f"expected a matrix, got ndim {matrix.ndim}")
    rows, cols = matrix.shape
    return {"rows": rows, "cols": cols, "data": _complex_list(matrix)}


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
        pairs = np.asarray(amplitudes)  # one array, not a complex object per pair
        if pairs.dtype.kind not in "biuf" or pairs.ndim != 2 or pairs.shape[1] != 2:
            raise TypeError  # strings, None, ragged or not pairs
        amps = pairs.astype(float, copy=False).view(complex).reshape(-1)
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
