"""JSON round-trips for matrices, states, projectors, and subspaces, and
the chunked writer."""

import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snverify import serialize
from snverify.cli import _round_floats
from snverify.entangled import phi_plus
from snverify.errors import InvalidArgumentError
from snverify.symgroup import Partition
from snverify.wfs import gpe_kraus, wfs_projector
from snverify.yyrep import fourier_transform_matrix, tensor_rep

P = Partition.parse


def _decoded(doc: dict) -> np.ndarray:
    """The complex matrix of a matrix document."""
    data = np.array([complex(re, im) for re, im in doc["data"]])
    return data.reshape(doc["rows"], doc["cols"])


@given(st.integers(min_value=0, max_value=1000), st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_matrix_round_trip_is_exact(seed, d):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    doc = serialize.matrix_to_json(m)
    # through an actual JSON encode/decode, not just the dict
    back = _decoded(json.loads(serialize.dumps(doc)))
    assert back.tobytes() == m.tobytes()


def test_matrix_json_schema():
    doc = json.loads(serialize.dumps(serialize.matrix_to_json(np.eye(2))))
    assert doc["rows"] == 2 and doc["cols"] == 2
    assert doc["data"][0] == [1.0, 0.0] and doc["data"][1] == [0.0, 0.0]


def test_complex_list_matches_the_per_entry_loop():
    # The vectorized pairs must give the JSON of the per-entry loop byte for
    # byte: signed zeros, subnormals, real input and strided views included.
    tiny = np.nextafter(0.0, 1.0)
    values = np.array([[-0.0 + 0.0j, complex(0.0, -0.0), complex(tiny, -tiny)],
                       [complex(-tiny, 5e-324), complex(1e308, -2.5), complex(1 / 3, -1e-310)]])
    real = np.array([[-0.0, tiny, 1.5], [-tiny, 2.0, -3e-320]])
    for arr in (values, real, values[:, 1], real.T, np.linspace(-1.0, 1.0, 7)):
        loop = [[float(z.real), float(z.imag)] for z in np.asarray(arr).reshape(-1)]
        assert serialize.dumps(serialize._complex_list(arr)) == json.dumps(loop)


def test_matrix_to_json_rejects_a_non_matrix():
    with pytest.raises(InvalidArgumentError):
        serialize.matrix_to_json(np.ones(3))


def test_state_round_trip():
    state = phi_plus(3)
    doc = json.loads(serialize.dumps(serialize.state_to_json(state)))
    back = serialize.state_from_json(doc)
    assert back.registers == (3, 3)
    assert back.amplitudes.tobytes() == state.amplitudes.tobytes()


@pytest.mark.parametrize(
    "amplitudes",
    [[[True, False], [False, False]], [[True, 0.5], [0, 0]], [[0.6, 0.0], [0.8, False]]],
    ids=["all-boolean", "boolean-first", "boolean-last"],
)
def test_state_from_json_rejects_boolean_amplitudes(amplitudes):
    with pytest.raises(InvalidArgumentError):
        serialize.state_from_json({"registers": [2], "amplitudes": amplitudes})


def test_projector_and_kraus_docs_carry_labels():
    sigma = tensor_rep(P("2,1"), P("2,1"))
    proj = wfs_projector(sigma, P("2,1"))
    doc = json.loads(serialize.dumps(serialize.projector_to_json(proj, P("2,1"))))
    assert doc["lambda"] == "2,1" and doc["rank"] == 2
    np.testing.assert_allclose(_decoded(doc), proj.matrix, atol=0)

    kraus = gpe_kraus(sigma, P("3"))
    assert kraus.shape_label == P("3")
    assert kraus.matrix.shape == (6 * 4, 4)


# ------------------------------------------------------------------ writer

def _list_form(doc) -> str:
    """The oracle: json.dumps with every holder replaced by its tolist()."""
    return json.dumps(doc, default=serialize.ComplexArray.tolist)


def _longest_floats(size: int, seed: int) -> np.ndarray:
    """All-distinct complex entries whose parts print 22 to 24 characters:
    a sign, 17 significant digits and a three-digit negative exponent."""
    rng = np.random.default_rng(seed)
    parts = rng.uniform(1.0, 10.0, (size, 2)) * rng.choice([-1.0, 1.0], (size, 2))
    return (parts * 10.0 ** rng.integers(-307, -100, (size, 2))).view(complex).reshape(-1)


def _special_values() -> np.ndarray:
    """Signed zeros, NaNs with different payloads and signs, infinities and
    subnormals, each repeated, in every pairing of real and imaginary part."""
    nans = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000,
                     0x7FF0000000000001], dtype=np.uint64).view(np.float64)
    tiny = np.nextafter(0.0, 1.0)
    parts = np.concatenate([[0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 2.5e-310, 1.0], nans])
    values = np.empty((3, parts.size, parts.size), dtype=complex)
    values.real, values.imag = parts[None, None, :], parts[None, :, None]
    return values.reshape(-1)


@pytest.mark.parametrize("n", [4, 5])
def test_writer_matches_json_on_the_fourier_transform(n):
    doc = serialize.matrix_to_json(fourier_transform_matrix(n))
    assert serialize.dumps(doc) == _list_form(doc)


def test_writer_matches_json_on_all_distinct_entries():
    rng = np.random.default_rng(8)
    values = rng.standard_normal(518_400) + 1j * rng.standard_normal(518_400)
    doc = serialize.matrix_to_json(values.reshape(720, 720))
    assert serialize.dumps(doc) == _list_form(doc)


def test_writer_keeps_each_bit_pattern_apart():
    # -0.0 and 0.0 compare equal, and NaNs compare unequal to everything,
    # yet each must keep its own text: grouping is by bits, not by value.
    values = _special_values()
    doc = {"data": serialize._complex_list(values), "tag": "x"}
    text = serialize.dumps(doc)
    assert text == _list_form(doc)
    assert "NaN" in text and "-Infinity" in text and "[-0.0, 0.0]" in text
    assert "[0.0, -0.0]" in text and "5e-324" in text


@pytest.mark.parametrize(
    "values",
    [
        np.zeros((0, 3), dtype=complex),
        np.arange(24.0).reshape(4, 6)[::2, ::3],
        (np.arange(12.0) - 1j * np.arange(12.0)).reshape(3, 4).T,
        np.array([[-0.0, 1.5], [0.0, -0.0]]),
        np.array([[7]]),
    ],
    ids=["empty", "strided-real", "transposed-complex", "real-signed-zeros", "integer"],
)
def test_writer_matches_json_on_empty_strided_and_real_input(values):
    doc = serialize.matrix_to_json(values)
    assert serialize.dumps(doc) == _list_form(doc)


def test_writer_matches_json_on_a_subspace_doc():
    # A document of several arrays: a subspace as its basis columns.
    rng = np.random.default_rng(3)
    basis = np.linalg.qr(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))[0]
    doc = {"ambient_dim": 6, "dim": 3,
           "basis": [serialize._complex_list(basis[:, k]) for k in range(3)]}
    assert serialize.dumps(doc) == _list_form(doc)
    assert serialize.dumps([doc, {"again": doc}]) == _list_form([doc, {"again": doc}])


def test_writer_refuses_what_json_refuses():
    with pytest.raises(TypeError):
        serialize.dumps({"x": object()})


# -------------------------------------------------------------- chunking

CHUNK = serialize.CHUNK


@pytest.mark.parametrize("size", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
def test_writer_matches_json_around_chunk_boundaries(size):
    values = _longest_floats(size, 5)
    # One bit pattern on both sides of every boundary, so that a chunk's
    # grouping cannot leak into its neighbour's.
    repeated = values[7]
    for boundary in range(CHUNK, size, CHUNK):
        values[boundary - 2 : boundary + 2] = repeated
    doc = {"data": serialize._complex_list(values)}
    assert serialize.dumps(doc) == _list_form(doc)


def test_writer_keeps_special_values_apart_across_a_chunk_boundary():
    special = _special_values()
    values = np.concatenate([np.full(CHUNK - special.size // 2, 0.5 - 0.5j), special,
                             special[::-1]])
    doc = {"data": serialize._complex_list(values)}
    assert serialize.dumps(doc) == _list_form(doc)


def test_writer_matches_json_on_two_arrays_longer_than_a_chunk():
    rng = np.random.default_rng(6)
    first = rng.standard_normal(CHUNK + 5) + 1j * rng.standard_normal(CHUNK + 5)
    second = np.round(rng.standard_normal(2 * CHUNK + 1), 2)  # few distinct entries
    doc = {"first": serialize._complex_list(first), "n": 2,
           "second": serialize._complex_list(second)}
    assert serialize.dumps(doc) == _list_form(doc)


@pytest.mark.parametrize(
    "values, width",
    [(lambda: fourier_transform_matrix(5).reshape(-1), 1),  # real: one word an entry
     (lambda: np.round(np.random.default_rng(8).standard_normal(CHUNK + 99), 1)
      + 1j * np.random.default_rng(9).integers(-1, 2, CHUNK + 99), 2),
     (_special_values, 2)],
    ids=["ft5", "repeats-across-a-boundary", "special"],
)
def test_writer_keeps_values_apart_when_every_key_collides(values, width, monkeypatch):
    # With every mix equal, the sort keys are the indices alone: runs of
    # equal entries split wherever the bits differ, so a value may be
    # encoded more than once but never shares another's text.  The texts an
    # array keeps for its later chunks are looked up by the same mix, and a
    # lookup checks every bit.
    mixed = []
    monkeypatch.setattr(serialize, "_key_mix",
                        lambda words: mixed.append(words.shape[1]) or np.zeros(len(words), np.uint64))
    doc = {"data": serialize._complex_list(values())}
    assert serialize.dumps(doc) == _list_form(doc)
    assert doc["data"].values.itemsize == 8 * width
    assert mixed and set(mixed) == {width}


def _recurring(size: int, complex_: bool) -> np.ndarray:
    """Entries of a pool of 40 values that recur in every chunk and across
    chunks: signed zeros, NaNs of two payloads, infinities, subnormals and
    finite floats."""
    nans = np.array([0x7FF8000000000000, 0x7FF8000000000001], dtype=np.uint64).view(np.float64)
    tiny = np.nextafter(0.0, 1.0)
    parts = np.concatenate([[0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 2.5e-310, -1e-320],
                            nans, np.linspace(-1.0, 1.0, 30) / 3])
    rng = np.random.default_rng(12)
    if not complex_:
        return parts[rng.integers(0, parts.size, size)]
    values = np.empty(size, dtype=complex)
    values.real, values.imag = parts[rng.integers(0, parts.size, (2, size))]
    return values


@pytest.mark.parametrize("pretty", [False, True], ids=["plain", "pretty"])
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_writer_reuses_texts_across_chunks_byte_for_byte(complex_, pretty):
    # Three chunks and a part of the same pool: the later chunks find the
    # texts the first one kept, and a pool of 40 values keeps them on.
    values = _recurring(3 * CHUNK + 77, complex_)
    doc = {"tag": "x", "data": serialize._complex_list(values)}
    assert doc["data"].values.itemsize == (16 if complex_ else 8)
    if pretty:
        text = "".join(serialize.pieces(doc, True))
        assert text == json.dumps(_round_floats(json.loads(_list_form(doc))), indent=2)
    else:
        assert serialize.dumps(doc) == _list_form(doc)


def test_reuse_stops_looking_up_when_its_lookups_miss():
    # A chunk of recurring values, then chunks whose values are all new: the
    # first of these misses, and the array's later chunks look up nothing.
    values = np.concatenate([_recurring(CHUNK, True), _longest_floats(2 * CHUNK + 5, 3)])
    reuse = serialize._Reuse(2)
    looked_up = []
    for start in range(0, values.size, CHUNK):
        looked_up.append(bool(reuse.mixes.size))
        serialize._chunk_text(values[start : start + CHUNK], reuse, "], [", ", ", False)
    assert looked_up == [False, True, False, False]
    assert not reuse.on and not reuse.room()
    doc = {"data": serialize._complex_list(values)}
    assert serialize.dumps(doc) == _list_form(doc)


_PARTS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, 1 / 3]),
)


@pytest.mark.parametrize("size", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1])
@given(pool=st.lists(st.tuples(_PARTS, _PARTS), min_size=1, max_size=12),
       real=st.booleans(), two=st.booleans(), wraps=st.lists(st.booleans(), max_size=3))
@settings(max_examples=6, deadline=None)
def test_pretty_writer_matches_json_dumps_indent_2(size, pool, real, two, wraps):
    # Each array repeats a pool of values, and a second array sits one level
    # below the first; each wrap nests the document one level deeper, in a
    # dict or a list, beside floats that are rounded too.
    parts = np.array(pool)
    values = np.resize(parts[:, 0] if real else parts.view(complex).reshape(-1), size)
    doc = serialize.ComplexArray(values)
    if two:
        doc = [doc, {"second": serialize.ComplexArray(values[::-1][: size // 2 + 1])}]
    for in_dict in wraps:
        doc = {"tag": "x", "inner": doc, "third": 1 / 3} if in_dict else [doc, -2.5]
    text = "".join(serialize.pieces(_round_floats(doc), True))
    assert text == json.dumps(_round_floats(json.loads(_list_form(doc))), indent=2)


def test_write_and_dumps_give_one_text():
    doc = serialize.matrix_to_json(fourier_transform_matrix(5))
    out = io.StringIO()
    serialize.write(doc, out)
    assert out.getvalue() == serialize.dumps(doc)


# ---------------------------------------------------------------- memory

class _Sink:
    """A text stream that keeps only the length of what is written to it."""

    def __init__(self):
        self.length = 0

    def write(self, text: str) -> None:
        self.length += len(text)


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize(
    "values",
    [lambda: fourier_transform_matrix(6), lambda: _longest_floats(CHUNK, 4),
     lambda: _longest_floats(10_000, 4)],
    ids=["ft6", "all-distinct-longest", "all-distinct-longest-10000"],
)
def test_writer_peak_stays_under_its_price(values):
    # The price covers the holder's complex copy, the source it is copied
    # from (built before tracing here) and one chunk's working set, plain or
    # pretty.  Below 20,000 entries json.dumps keeps every float's text
    # until it joins, up to 391 B an entry: a price of 256 B an entry was
    # under it.
    values = values()
    price = (serialize.HOLDER_BYTES * values.size
             + serialize.ENTRY_BYTES * min(values.size, CHUNK))
    for pretty in (False, True):
        sink = _Sink()
        peak = _traced_peak(lambda: serialize.write(
            serialize.matrix_to_json(values.reshape(values.shape[0], -1)), sink, pretty))
        assert sink.length > 0
        assert peak <= price, pretty


class _PeakSink(_Sink):
    """A _Sink that keeps, for each piece written, its length and the traced
    peak since the previous piece."""

    def __init__(self):
        super().__init__()
        self.pieces = []

    def write(self, text: str) -> None:
        super().write(text)
        self.pieces.append((len(text), tracemalloc.get_traced_memory()[1]))
        tracemalloc.reset_peak()


def test_writer_peak_beyond_the_holder_does_not_grow_with_size():
    # Only one chunk's text exists at a time, so each of 7 chunks peaks like
    # the first, plain or pretty.
    doc = {"data": serialize._complex_list(_longest_floats(7 * CHUNK, 9))}
    for pretty in (False, True):
        sink = _PeakSink()
        tracemalloc.start()
        try:
            serialize.write(doc, sink, pretty)
        finally:
            tracemalloc.stop()
        peaks = [peak for length, peak in sink.pieces if length > CHUNK]  # the chunks' texts
        assert len(peaks) == 7, pretty
        assert all(abs(peak - peaks[0]) < 0.1 * peaks[0] for peak in peaks), (pretty, peaks)
        assert max(peaks) <= serialize.ENTRY_BYTES * CHUNK, (pretty, peaks)


def test_writer_peak_with_reuse_stays_within_a_chunks_price():
    # Few distinct values in 7 chunks: the texts kept for later chunks add
    # to each chunk's working set, which stays within its price.
    doc = {"data": serialize._complex_list(_recurring(7 * CHUNK, True))}
    for pretty in (False, True):
        sink = _PeakSink()
        tracemalloc.start()
        try:
            serialize.write(doc, sink, pretty)
        finally:
            tracemalloc.stop()
        peaks = [peak for length, peak in sink.pieces if length > CHUNK]
        assert len(peaks) == 7, pretty
        assert max(peaks) <= serialize.ENTRY_BYTES * CHUNK, (pretty, peaks)
