"""JSON schemas for matrices, states and projectors, and the one writer
of the CLI's output, plain or pretty.

Complex entries serialize as [re, im] pairs at full double precision;
matrices are row-major.  A document holds each array as a ComplexArray,
one contiguous vector, never as one Python object per entry: complex128
from a complex source, and float64 from a real one, which is held as it
is when it is already contiguous float64, so no complex copy is made.
pieces(doc) yields exactly the text of json.dumps of the document with
every holder replaced by its tolist(): the document's own text around
each array, and each array CHUNK entries at a time.  With pretty, that
of json.dumps(indent=2), with each chunk's distinct entries rounded by
round_float and their texts broken as indent=2 breaks them at the
indentation of their array's line.  write(doc, stream, pretty) writes
the pieces as they are made, so no text longer than one chunk's exists,
and dumps(doc) joins the plain ones.

A chunk is written from one text per distinct entry: one np.sort of
uint64 keys, a mix of each entry's 64-bit words (two for complex, one
for real) above its index in the chunk, puts equal entries side by side,
and its runs split wherever the bit patterns differ (so -0.0, 0.0 and
each NaN keep their own text, and two entries whose mixes collide are
never merged).  A real entry's text is its re's, and the " 0.0" of its
im is written in the text that parts it from the next.  The texts of up
to REUSE distinct entries that were repeated inside a chunk are kept for
the array's later chunks, which look them up by their whole mix and
check their bits; the array stops looking up, and drops the table, after
the first chunk whose lookups hit fewer than one distinct entry in
_HIT_SHARE.  json.dumps encodes the entries not found, and the texts are
gathered by the inverse index and joined.

In process, at one thread of a shared 2-core x86-64 host, writing the
eight chunks of the Fourier transform of S_6 (518,400 real entries of
5,082 distinct values, 12.7 MB of text) to a sink takes 27-29 ms, and
29-33 ms with pretty, against 34-43 ms and 39-63 ms for complex pairs
with no table (5 best of 11 runs and of 5, both alternated twice); it
encodes 5,090 texts, against 10,078.  The projector of 5,3 x 4,2,2 onto
5,3 (D = 1,568, 2,458,624 real entries) looks up in its second chunk
only, and takes 1.67-1.77 s against 2.47-2.54 s.  A second `rep ft 6`
through cli.main, its transform cached, peaks at 3.6 MiB by tracemalloc
beside the untouched block that pieces frees first (25.0 MiB, see
there), against 11.1 MiB with the 7.9 MiB complex copy and 36.5 MiB while
the whole text was built.

The price of an array's JSON, charged before the holder is built, is
HOLDER_BYTES an entry for the holder and the array it is copied from,
and ENTRY_BYTES for each entry of one chunk's working set, plain or
pretty.  ENTRY_BYTES covers the worst case, all-distinct entries with the
longest float texts.
"""

from __future__ import annotations

import itertools
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

# Distinct entries whose texts an array keeps for its later chunks, and
# the share of a chunk's lookups that must hit for the next to look up.
REUSE = 8192
_HIT_SHARE = 8

# Odd multipliers of _key_mix (the golden ratio's and splitmix64's).
_MIX_A, _MIX_B = np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBF58476D1CE4E5B9)

# Peak bytes per entry of one chunk's working set beside its holder, by
# tracemalloc on all-distinct entries whose floats print 22-24 characters:
# 239-243 B on a whole chunk, and up to 391 B below 20,000 entries, where
# json.dumps keeps every float's text until it joins its first 100,000
# pieces.  A real entry's working set is smaller, and an array's kept
# texts (at most REUSE) sit in what a whole chunk leaves below the price.
ENTRY_BYTES = 400

# Bytes per entry alive while a document is written: the holder and the
# array it is copied from, each at most complex.  A contiguous float64
# source is held as it is, at 8 B an entry, under the same price.
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
    """A complex array bound for JSON as its list of [re, im] pairs, held
    as one contiguous vector: complex128 from a complex source, float64
    (each entry's im 0.0) from a real or integer one."""

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray):
        values = np.ravel(values)
        dtype = complex if np.iscomplexobj(values) else np.float64
        self.values = np.ascontiguousarray(values, dtype=dtype)

    def tolist(self) -> list[list[float]]:
        return self.values.astype(complex).view(np.float64).reshape(-1, 2).tolist()


def round_float(value: float) -> float:
    """value at the 6 significant digits of pretty output; zeros,
    infinities and NaN as they are."""
    if value == 0 or not math.isfinite(value):
        return value
    rounded = float(f"{value:.6g}")
    return value if rounded == value else rounded  # an unchanged float stays one shared object


def _key_mix(words: np.ndarray) -> np.ndarray:
    """A uint64 mix of each row of a (size, 1) or (size, 2) uint64 array,
    whose high bits depend on every bit of the row."""
    mixed = words[:, 0] * _MIX_A
    if words.shape[1] == 2:
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


class _Reuse:
    """The texts of up to REUSE distinct entries that were repeated inside
    an earlier chunk of one array, for its later chunks to look up by the
    whole _key_mix of their words.  A lookup compares all the bits of the
    first entry held with its mix, so an entry whose mix collides with
    another's may miss but never takes its text.  Once a chunk's lookups
    hit fewer than one distinct entry in _HIT_SHARE, the table is dropped
    and the array's later chunks neither look up nor keep."""

    def __init__(self, width: int):
        self.on = True
        self.width = width
        self._clear()

    def _clear(self) -> None:
        self.mixes = np.empty(0, dtype=np.uint64)  # sorted
        self.words = np.empty((0, self.width), dtype=np.uint64)
        self.texts = np.empty(0, dtype=object)

    def room(self) -> int:
        return REUSE - self.mixes.size if self.on else 0

    def look_up(self, distinct: np.ndarray) -> tuple[np.ndarray | None, np.ndarray | None]:
        """An object array of the texts of the distinct entries (rows of
        their words) found, and the indices of those not found; or None,
        None when the table is empty and looks up nothing."""
        if not self.mixes.size:
            return None, None
        mixes = _key_mix(distinct)
        at = np.searchsorted(self.mixes, mixes)
        at[at == self.mixes.size] = 0
        found = self.mixes[at] == mixes
        found &= (self.words[at] == distinct).all(axis=1)
        texts = np.empty(found.size, dtype=object)
        texts[found] = self.texts[at[found]]
        if np.count_nonzero(found) * _HIT_SHARE < found.size:
            self.on = False
            self._clear()
        return texts, np.flatnonzero(~found)

    def keep(self, words: np.ndarray, texts: np.ndarray) -> None:
        """Hold the texts of the entries whose words are the rows of words."""
        if not texts.size:
            return
        mixes = np.concatenate([self.mixes, _key_mix(words)])
        order = np.argsort(mixes, kind="stable")
        self.mixes = mixes[order]
        self.words = np.concatenate([self.words, words])[order]
        self.texts = np.concatenate([self.texts, texts])[order]


def _chunk_text(values: np.ndarray, reuse: _Reuse, between: str, inner: str,
                pretty: bool) -> str:
    """The entries' texts parted by between, from one text per distinct
    entry: a complex entry's [re, im] pair without its brackets, re and im
    parted by inner, or a real entry's re alone, rounded if pretty.  The
    distinct entries that reuse holds are looked up, the rest encoded by one
    json.dumps.  Each intermediate is dropped before the next is built."""
    size = values.size
    words = values.view(np.uint64).reshape(size, -1)  # one word per real entry, two per complex
    width = words.shape[1]
    # Each key is the entry's mix above its index, so equal entries sort
    # side by side; a run below splits wherever the bits differ.
    keys = _key_mix(words)
    keys &= _MIX_BITS
    keys |= np.arange(size, dtype=np.uint64)
    keys.sort()
    keys &= _INDEX_MASK
    order = keys.view(np.int64)  # the indices in sorted order
    ranked = words[order]
    del words
    starts = np.empty(size, dtype=bool)  # first of its run of equal bits
    starts[0] = True
    np.not_equal(ranked[1:, 0], ranked[:-1, 0], out=starts[1:])
    if width == 2:
        starts[1:] |= ranked[1:, 1] != ranked[:-1, 1]
    firsts = np.flatnonzero(starts)
    del starts
    lengths = np.diff(firsts, append=size)  # of the runs
    inverse = np.empty(size, dtype=np.intp)
    inverse[order] = np.repeat(np.arange(firsts.size), lengths)
    del keys, order
    distinct = ranked[firsts]
    del ranked, firsts
    texts, missed = reuse.look_up(distinct)
    kept = np.empty(0, dtype=np.intp)  # the entries not found and repeated in this chunk
    if room := reuse.room():
        kept = lengths > 1
        kept = (np.flatnonzero(kept) if missed is None else missed[kept[missed]])[:room]
    del lengths
    kept_words = distinct[kept]
    parts = (distinct if missed is None else distinct[missed]).view(np.float64)
    del distinct
    parts = parts.reshape(-1).tolist() if width == 1 else parts.tolist()
    if parts:
        if pretty:
            parts = ([round_float(re) for re in parts] if width == 1
                     else [[round_float(re), round_float(im)] for re, im in parts])
        if width == 1:
            encoded, part, ends = json.dumps(parts), ", ", 1
        else:
            encoded, part, ends = json.dumps(parts, separators=(inner, ": ")), f"]{inner}[", 2
        del parts
        new = encoded.split(part)
        del encoded
        new[0] = new[0][ends:]  # drop "[" or "[[", and "]" or "]]" below: one text may be both
        new[-1] = new[-1][:-ends]
        if texts is None:
            texts = np.array(new, dtype=object)
        else:
            texts[missed] = np.array(new, dtype=object)
        del new
    reuse.keep(kept_words, texts[kept])
    del kept_words, kept, missed
    gathered = texts[inverse].tolist()
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
    if any(array.values.size > CHUNK for array in arrays):
        # Freeing one untouched block of a chunk's price raises glibc's
        # dynamic mmap and trim thresholds to it and to twice it (mallopt(3)),
        # so each chunk reuses the heap pages the last one freed instead of
        # faulting in fresh ones: writing `rep ft 6` in a fresh process takes
        # 1,174 page faults, against 7,610.  Elsewhere it costs one untouched
        # allocation.
        np.empty(ENTRY_BYTES * CHUNK, dtype=np.uint8)
    yield head
    for before, array, tail in zip([head, *tails], arrays, tails):
        values = array.values
        if not values.size:
            yield "[]"
        else:
            opening, between, inner, closing = _pair_layout(pretty, before)
            reuse = _Reuse(values.itemsize // 8)
            if reuse.width == 1:  # a real entry's text is its re's: add its im's
                between, closing = f"{inner}0.0{between}", f"{inner}0.0{closing}"
            yield opening
            for start in range(0, values.size, CHUNK):
                if start:
                    yield between
                yield _chunk_text(values[start : start + CHUNK], reuse, between, inner, pretty)
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
        if pairs.dtype.kind not in "iuf" or pairs.ndim != 2 or pairs.shape[1] != 2:
            raise TypeError  # booleans, strings, None, ragged or not pairs
        if bool in set(map(type, itertools.chain.from_iterable(amplitudes))):
            raise TypeError  # a boolean beside numbers, which NumPy made one
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
