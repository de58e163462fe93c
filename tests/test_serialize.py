"""JSON round-trips for matrices, states, projectors, and subspaces."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snverify import serialize
from snverify.entangled import Subspace, orthonormalize, phi_plus
from snverify.errors import InvalidArgumentError
from snverify.symgroup import Partition
from snverify.wfs import gpe_kraus, wfs_projector
from snverify.yyrep import tensor_rep

P = Partition.parse


@given(st.integers(min_value=0, max_value=1000), st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_matrix_round_trip_is_exact(seed, d):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    doc = serialize.matrix_to_json(m)
    # through an actual JSON encode/decode, not just the dict
    back = serialize.matrix_from_json(json.loads(json.dumps(doc)))
    assert back.tobytes() == m.tobytes()


def test_matrix_json_schema():
    doc = serialize.matrix_to_json(np.eye(2))
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
        assert json.dumps(serialize._complex_list(arr)) == json.dumps(loop)


def test_matrix_from_json_validates():
    with pytest.raises(InvalidArgumentError):
        serialize.matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0]]})
    with pytest.raises(InvalidArgumentError):
        serialize.matrix_from_json({"rows": 2})
    with pytest.raises(InvalidArgumentError):
        serialize.matrix_to_json(np.ones(3))


@pytest.mark.parametrize("data", [[[1]], [[1, 2, 3]], [["a", 0]]])
def test_matrix_from_json_rejects_malformed_entries(data):
    with pytest.raises(InvalidArgumentError):
        serialize.matrix_from_json({"rows": 1, "cols": 1, "data": data})


def test_state_round_trip():
    state = phi_plus(3)
    doc = json.loads(json.dumps(serialize.state_to_json(state)))
    back = serialize.state_from_json(doc)
    assert back.registers == (3, 3)
    assert back.amplitudes.tobytes() == state.amplitudes.tobytes()


def test_projector_and_kraus_docs_carry_labels():
    sigma = tensor_rep(P("2,1"), P("2,1"))
    proj = wfs_projector(sigma, P("2,1"))
    doc = serialize.projector_to_json(proj, P("2,1"))
    assert doc["lambda"] == "2,1" and doc["rank"] == 2
    back = serialize.matrix_from_json(doc)
    np.testing.assert_allclose(back, proj.matrix, atol=0)

    kraus = gpe_kraus(sigma, P("3"))
    kdoc = serialize.kraus_to_json(kraus)
    assert kdoc["lambda"] == "3"
    assert kdoc["rows"] == 6 * 4 and kdoc["cols"] == 4


def test_subspace_doc():
    rng = np.random.default_rng(0)
    basis = orthonormalize(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
    space = Subspace(ambient_dim=4, basis=basis)
    doc = serialize.subspace_to_json(space)
    assert doc["ambient_dim"] == 4 and doc["dim"] == 2
    col0 = np.array([complex(re, im) for re, im in doc["basis"][0]])
    np.testing.assert_allclose(col0, basis[:, 0], atol=0)
