"""JSON schemas for matrices, states and projectors, and the one writer
of the CLI's output, plain or pretty.

Complex entries serialize as [re, im] pairs at full double precision;
matrices are row-major.  A document holds each complex array as a
ComplexArray, one contiguous complex128 vector, never as one Python
object per entry.  pieces(doc) yields exactly the text of json.dumps of
the document with every holder replaced by its tolist(): the document's
own text around each array, and each array CHUNK entries at a time.
With pretty, that of json.dumps(indent=2), with each chunk's distinct
entries rounded by round_float and their texts broken as indent=2 breaks
them at the indentation of their array's line.  write(doc, stream,
pretty) writes the pieces as they are made, so no text longer than one
chunk's exists, and dumps(doc) joins the plain ones.  A chunk is
written from one text per distinct entry: one np.sort of uint64 keys, a
mix of each entry's two 64-bit words above its index in the chunk, puts
equal entries side by side, and its runs split wherever the 128-bit
patterns differ (so -0.0, 0.0 and each NaN keep their own text, and two
entries whose mixes collide are never merged).  json.dumps encodes the
first entry of each run, and the pieces of that text are gathered by the
inverse index and joined.  In process, at one thread of a shared 2-core
x86-64 host, grouping and encoding the eight chunks of the Fourier
transform of S_6 (518,400 entries of 5,082 distinct values, 12.7 MB of
text) takes 40-47 ms, against 50-53 ms with a lexsort of the two words;
writing it to /dev/null took 0.09-0.10 s with the lexsort, against 0.15
s while the whole text was built and 1.4 s for json.dumps of its pairs.
A second `rep ft 6` through cli.main, its transform cached, peaks at
11.1 MiB by tracemalloc, its 7.9 MiB holder included, against 36.5 MiB.

The price of an array's JSON, charged before the holder is built, is
HOLDER_BYTES an entry for the holder and the array it is copied from,
and ENTRY_BYTES for each entry of one chunk's working set, plain or
pretty.  ENTRY_BYTES covers the worst case, all-distinct entries with the
longest float texts.
"""

from __future__ import annotations

import json
import math
from typing import Iterator, TextIO

import numpy as np

from .entangled import StateVector
from .errors import InvalidArgumentError, require_bytes
from .symgroup import Partition
from .wfs import Projector

# Entries grouped and encoded at a time: no text longer than one chunk's
# is built.  An entry's index in its chunk fills the low bits of its sort
# key, and the rest hold its mix.
CHUNK = 65_536
_INDEX_MASK = (1 << (CHUNK - 1).bit_length()) - 1
_MIX_BITS = np.uint64(((1 << 64) - 1) ^ _INDEX_MASK)

# Odd multipliers of _key_mix (the golden ratio's and splitmix64's).
_MIX_A, _MIX_B = np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBF58476D1CE4E5B9)

# Peak bytes per entry of one chunk's working set beside its holder, by
# tracemalloc on all-distinct entries whose floats print 22-24 characters:
# 239-243 B on a whole chunk, and up to 391 B below 20,000 entries, where
# json.dumps keeps every float's text until it joins its first 100,000
# pieces.
ENTRY_BYTES = 400

# Bytes per entry alive while a document is written: the holder's complex
# copy and the array it was copied from, at most complex as well.
HOLDER_BYTES = 2 * 16

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
    nbytes = HOLDER_BYTES * entries + ENTRY_BYTES * min(entries, CHUNK)
    require_bytes(nbytes, f"the JSON of {what}")


class ComplexArray:
    """A complex array bound for JSON as its list of [re, im] pairs."""

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray):
        self.values = np.ascontiguousarray(np.ravel(values), dtype=complex)

    def tolist(self) -> list[list[float]]:
        return self.values.view(np.float64).reshape(-1, 2).tolist()


def round_float(value: float) -> float:
    """value at the 6 significant digits of pretty output; zeros,
    infinities and NaN as they are."""
    if value == 0 or not math.isfinite(value):
        return value
    rounded = float(f"{value:.6g}")
    return value if rounded == value else rounded  # an unchanged float stays one shared object


def _key_mix(words: np.ndarray) -> np.ndarray:
    """A uint64 mix of each row of a (size, 2) uint64 array, whose high bits
    depend on every bit of both words."""
    mixed = words[:, 0] * _MIX_A
    mixed ^= words[:, 1]
    mixed *= _MIX_B
    return mixed


def _pair_layout(pretty: bool, before: str) -> tuple[str, str, str, str]:
    """The texts that open a list of [re, im] pairs, part two pairs, part re
    from im and close the list, as json.dumps writes them, or with pretty
    as json.dumps(indent=2) does after the document's text before."""
    if not pretty:
        return "[[", "], [", ", ", "]]"
    line = before.rpartition("\n")[2]
    pad = "\n" + " " * (len(line) - len(line.lstrip(" ")))
    return f"[{pad}  [{pad}    ", f"{pad}  ],{pad}  [{pad}    ", f",{pad}    ", f"{pad}  ]{pad}]"


def _chunk_text(values: np.ndarray, between: str, inner: str, pretty: bool) -> str:
    """The entries' [re, im] pairs without the list's opening and closing
    texts, parted as _pair_layout says, from one text per distinct entry,
    its parts rounded if pretty.  Each intermediate is dropped before the
    next is built."""
    size = values.size
    # Each key is the entry's mix above its index, so equal entries sort
    # side by side; a run below splits wherever the bits differ.
    keys = _key_mix(values.view(np.uint64).reshape(size, 2))
    keys &= _MIX_BITS
    keys |= np.arange(size, dtype=np.uint64)
    keys.sort()
    keys &= _INDEX_MASK
    order = keys.view(np.int64)  # the indices in sorted order
    ranked = values[order]
    words = ranked.view(np.uint64).reshape(size, 2)
    starts = np.empty(size, dtype=bool)  # first of its run of equal bits
    starts[0] = True
    np.not_equal(words[1:, 0], words[:-1, 0], out=starts[1:])
    starts[1:] |= words[1:, 1] != words[:-1, 1]
    del words
    inverse = np.empty(size, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    pairs = ranked[starts].view(np.float64).reshape(-1, 2).tolist()
    del ranked, order, keys, starts
    if pretty:
        pairs = [[round_float(re), round_float(im)] for re, im in pairs]
    encoded = json.dumps(pairs, separators=(inner, ": "))
    del pairs
    texts = encoded.split(f"]{inner}[")
    del encoded
    texts[0] = texts[0][2:]  # drop "[[", and "]]" below: one text may be both
    texts[-1] = texts[-1][:-2]
    gathered = np.array(texts, dtype=object)[inverse].tolist()
    del texts, inverse
    return between.join(gathered)


def pieces(payload, pretty: bool = False) -> Iterator[str]:
    """The text of json.dumps(payload), or with pretty of json.dumps(payload,
    indent=2) with complex entries rounded by round_float, in pieces: each
    ComplexArray as its list of [re, im] pairs, CHUNK entries at a time.
    The whole document is encoded, and a TypeError raised for what JSON
    refuses, before the first piece is yielded."""
    arrays = []

    def hole(obj):
        if not isinstance(obj, ComplexArray):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        arrays.append(obj)
        return _HOLE

    head, *tails = json.dumps(payload, default=hole,
                              indent=2 if pretty else None).split(_HOLE_TEXT)
    yield head
    for before, array, tail in zip([head, *tails], arrays, tails):
        values = array.values
        if not values.size:
            yield "[]"
        else:
            opening, between, inner, closing = _pair_layout(pretty, before)
            yield opening
            for start in range(0, values.size, CHUNK):
                if start:
                    yield between
                yield _chunk_text(values[start : start + CHUNK], between, inner, pretty)
            yield closing
        yield tail


def write(payload, stream: TextIO, pretty: bool = False) -> None:
    """Write the text of pieces(payload, pretty) to stream piece by piece."""
    for piece in pieces(payload, pretty):
        stream.write(piece)


def dumps(payload) -> str:
    """json.dumps(payload), byte for byte, with each ComplexArray written
    as its list of [re, im] pairs."""
    return "".join(pieces(payload))


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
