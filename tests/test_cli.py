"""CLI contract: JSON schemas, frozen example outputs, exit codes, seeded
determinism, and byte-identical self-test reports.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from snverify import characters, cli, serialize, verifier, wfs, yyrep
from snverify.cli import _round_floats, main, run
from snverify.entangled import StateVector, max_entangled_over_range, phi_plus
from snverify.errors import InvalidArgumentError, require_bytes
from snverify.symgroup import Partition, enumerate_partitions, irrep_dimension
from snverify.wfs import wfs_projector
from snverify.yyrep import tensor_rep


DATA = Path(__file__).parent / "data"


def invoke(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


# ------------------------------------------------------------ frozen outputs

def test_kron_example(capsys):
    code, doc = invoke(["kron", "2,1", "2,1", "2,1", "--route", "both"], capsys)
    assert code == 0
    assert doc == {"m": 1, "routes_agree": True}


def test_kron_both_exits_4_on_a_character_route_off_by_one(capsys, monkeypatch):
    # route both returns the character route's m once block_seeds' chain has
    # that rank on its probe; an m one too large must fail that check.
    multiplicities = characters.multiplicities

    def off_by_one(rep):
        return {lam: m + (lam == Partition.parse("2,1"))
                for lam, m in multiplicities(rep).items()}

    monkeypatch.setattr(wfs, "multiplicities", off_by_one)
    code, doc = invoke(["kron", "2,1", "2,1", "2,1", "--route", "both"], capsys)
    assert code == 4
    assert doc["status"] == "numerical-consistency"
    assert doc["error"].startswith("the 2,1 chain's probe has residual")
    assert doc["error"].endswith("at row 2, not rank m = 2")


def test_kron_both_exits_4_on_a_character_route_zero(capsys, monkeypatch):
    # With m = 0 block_seeds walks a one-row chain, which must vanish.
    multiplicities = characters.multiplicities

    def zero(rep):
        return {lam: 0 if lam == Partition.parse("2,1") else m
                for lam, m in multiplicities(rep).items()}

    monkeypatch.setattr(wfs, "multiplicities", zero)
    code, doc = invoke(["kron", "2,1", "2,1", "2,1", "--route", "both"], capsys)
    assert code == 4
    assert doc["status"] == "numerical-consistency"
    assert doc["error"].startswith("the 2,1 chain's probe has residual")
    assert doc["error"].endswith("at row 1, not rank m = 0")


def test_sym_dim_example(capsys):
    code, doc = invoke(["sym", "dim", "2,1"], capsys)
    assert code == 0
    assert doc == {"d": 2}


def test_lightning_example(capsys):
    code, doc = invoke(["lightning", "2,1", "2,1"], capsys)
    assert code == 0
    assert doc == {"(3)": 0.25, "(2,1)": 0.5, "(1,1,1)": 0.25}


def test_sym_partitions(capsys):
    code, doc = invoke(["sym", "partitions", "4"], capsys)
    assert code == 0
    assert doc["count"] == 5
    assert doc["partitions"][0] == "4" and doc["partitions"][-1] == "1,1,1,1"


def test_sym_tableaux(capsys):
    code, doc = invoke(["sym", "tableaux", "2,1"], capsys)
    assert code == 0
    assert doc["tableaux"] == [[[1, 2], [3]], [[1, 3], [2]]]


def test_rep_matrix_round_trips_schema(capsys):
    code, doc = invoke(["rep", "matrix", "2,1", "2,3,1"], capsys)
    assert code == 0
    assert (doc["rows"], doc["cols"]) == (2, 2)
    m = np.array([complex(re, im) for re, im in doc["data"]]).reshape(2, 2)
    np.testing.assert_allclose(np.trace(m), -1.0, atol=1e-10)


def test_rep_char(capsys):
    code, doc = invoke(["rep", "char", "2,1", "2,1,3"], capsys)
    assert code == 0
    assert doc == {"chi": [0.0, 0.0]}


def test_wfs_povm(capsys):
    code, doc = invoke(["wfs", "povm", "2,1", "2,1"], capsys)
    assert code == 0
    assert doc["ranks"] == {"(3)": 1, "(2,1)": 2, "(1,1,1)": 1}
    assert doc["completeness_residual"] < 1e-10


def test_verify_spectrum(capsys):
    code, doc = invoke(["verify", "spectrum", "2,1", "2,1", "2,1"], capsys)
    assert code == 0
    assert doc["c"] == 1.0
    assert doc["s"] == pytest.approx(0.5, abs=1e-9)
    assert doc["eigenvalue_one_multiplicity"] == 1


def test_verify_spectrum_at_n6_with_d144(capsys):
    # D = 9 * 16 = 144: the closed-form route never builds the 20736^2 operator.
    m = run(["kron", "4,2", "3,2,1", "3,2,1", "--route", "char"]).payload["m"]
    code, doc = invoke(["verify", "spectrum", "4,2", "3,2,1", "3,2,1"], capsys)
    assert code == 0
    spectrum = np.array(doc["spectrum"])
    half = m * 16 * 144 - m * m
    assert doc["eigenvalue_one_multiplicity"] == m * m
    levels = np.repeat([1.0, 0.5, 0.0], [m * m, half, 144**2 - m * m - half])
    assert np.array_equal(spectrum, levels)
    assert doc["s"] == 0.5


def test_verify_spectrum_at_d490_fits_64_mib(capsys, monkeypatch):
    # The operator holds the D^2 spectrum and the m = 4 blocks, D x 35; the
    # 16 accepting columns, which it no longer builds, were priced at
    # 122,931,200 B.
    argv = ["verify", "spectrum", "4,3", "4,2,1", "4,2,1"]
    monkeypatch.delenv("SNVERIFY_MAX_BYTES", raising=False)
    assert main(argv) == 0
    unbounded = capsys.readouterr().out
    monkeypatch.setenv("SNVERIFY_MAX_BYTES", str(64 << 20))
    assert main(argv) == 0
    assert capsys.readouterr().out == unbounded


def test_verify_spectrum_at_d490_fits_16_mb(capsys, monkeypatch):
    # The irrep blocks hold e_11's lattice along one chain, 7 D x D arrays
    # (13,445,600 B); priced at (n + 8) D x D they exited 3 at 28,812,000 B.
    monkeypatch.setenv("SNVERIFY_MAX_BYTES", "16000000")
    code, doc = invoke(["verify", "spectrum", "4,3", "4,2,1", "4,2,1"], capsys)
    assert code == 0, doc
    assert doc["eigenvalue_one_multiplicity"] == 16


def test_verify_spectrum_prices_its_json_before_the_operator(capsys, monkeypatch):
    # D = 1,568, m = 0: the JSON of 2,458,624 eigenvalues is priced at 26 B an
    # entry and the encoder's pieces, 64 B for each of the first 50,000.
    built = []
    monkeypatch.setattr(cli, "verification_acceptance_operator", lambda *args: built.append(args))
    monkeypatch.setenv("SNVERIFY_MAX_BYTES", "50000000")
    code, doc = invoke(["verify", "spectrum", "5,3", "4,2,2", "8"], capsys)
    assert code == 3
    assert doc["error"].startswith("the JSON of 2458624 eigenvalues: 67124224 B predicted")
    assert built == []


@pytest.mark.parametrize("pretty", [False, True], ids=["plain", "pretty"])
@pytest.mark.parametrize("triple", [["4,2", "3,2,1", "3,2,1"], ["4,3", "4,2,1", "7"]],
                         ids=["d144", "d490-m0"])
def test_verify_spectrum_json_holds_less_than_its_price(triple, pretty, monkeypatch):
    # Each writer's peak, the whole command traced; the blocks' chain at
    # D = 144 holds less than the writer.
    argv = ["verify", "spectrum", *triple] + ["--pretty"] * pretty
    prices, checked = [], cli.require_bytes
    monkeypatch.setattr(cli, "require_bytes",
                        lambda nbytes, what: prices.append(nbytes) or checked(nbytes, what))
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert main(argv) == 0  # the factors' images, cached and priced apart
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    price = max(prices)
    assert peak < price < 2 * peak, (peak, price)


def test_certify_at_d144_fits_the_default_budget_without_sigmas_stack(capsys, monkeypatch):
    # sigma's own stack would take 119 MB and the circuit five of them; a
    # trial draws three level weights and holds no array.
    monkeypatch.delenv("SNVERIFY_MAX_BYTES", raising=False)
    code, doc = invoke(["verify", "certify", "4,2", "3,2,1", "3,2,1", "--trials", "1"], capsys)
    assert code == 0
    assert doc["violations"] == 0


@pytest.mark.parametrize(
    "argv, price",
    [(["verify", "certify", "3,2", "3,1,1", "3,1,1", "--trials", "2"], 5_200),
     (["certify-lemma", "3,2", "--multiplicity", "2", "--trials", "2"], 2_600),
     (["verify", "certify", "5,4", "5,3,1", "4,3,2", "--trials", "2"], 5_200)],
    ids=["certify", "certify-lemma", "certify-n9"],
)
def test_certify_prices_its_trials_before_the_first_state(argv, price, capsys, monkeypatch):
    # Two trials' reports, at 1,300 B a report: the corollary writes two a
    # trial and the lemma one.  No trial holds an array, so that is the
    # verifier's whole price, at D = 30 as at n = 9 (D = 6,804).  One byte
    # under it the command exits 3 before any draw; at the price itself it
    # runs.  The budget is set for the verifier's check alone: the character
    # walk that gives m is priced apart, after it.
    drawn, draw = [], verifier._trial_weights
    monkeypatch.setattr(verifier, "_trial_weights", lambda *args: drawn.append(args) or draw(*args))
    codes = []
    for budget in (price - 1, price):
        def check(nbytes, what, budget=budget):
            with monkeypatch.context() as scoped:
                scoped.setenv("SNVERIFY_MAX_BYTES", str(budget))
                require_bytes(nbytes, what)

        monkeypatch.setattr(verifier, "require_bytes", check)
        code, doc = invoke(argv, capsys)
        codes.append(code)
        if code == 3:
            assert doc["error"].startswith(f"the reports of 2 trials: {price} B")
            assert drawn == []
    assert codes == [3, 0] and doc["violations"] == 0
    assert len(drawn) == 2


def test_certify_lemma_fits_a_budget_that_refused_the_coset_tower_average(capsys, monkeypatch):
    # I_30 x rho^(3,1,1), D = 180: certification priced the average at 12 +
    # n(n-1)/2 = 22 D x D arrays with the images turn reads (5,702,400 B) and
    # exited 3 under this budget; the dense trial state held 8 (2,073,600 B),
    # and a trial now draws three level weights.
    budget = 4_000_000
    assert (12 + 10) * 180**2 * 8 > budget > 8 * 180**2 * 8
    monkeypatch.setenv("SNVERIFY_MAX_BYTES", str(budget))
    code, doc = invoke(
        ["certify-lemma", "3,1,1", "--multiplicity", "30", "--trials", "2", "--seed", "1"], capsys
    )
    assert code == 0, doc
    assert doc["violations"] == 0 and len(doc["reports"]) == 2


def test_certify_outputs_are_pinned(capsys):
    # Frozen so that a later kernel cannot move them silently: the
    # corollary's stdout by its digest, its acceptances and distances within
    # 1e-12 of <psi|A|psi> from the dense operator Gamma (I + W) Gamma / 2 and
    # of the dense distance to its eigenvalue-1 space on the states built from
    # the drawn level weights; the lemma's reports at 1e-12 from the
    # coset-tower formula 1/2 + 1/2 Re<X, E(X)> and the dense distance to the
    # product target on the states built from them.
    assert main(["verify", "certify", "3,2", "3,1,1", "3,1,1", "--trials", "20", "--seed", "5"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "116c81e2d830d6788fb343f6e5ec1cfa5fa5b846c8f9ed229077c06c4152d5a8"
    code, doc = invoke(
        ["certify-lemma", "3,2", "--multiplicity", "2", "--trials", "20", "--seed", "5"], capsys
    )
    assert code == 0
    frozen = json.loads((DATA / "certify-lemma-3,2-m2-t20-s5.json").read_text())
    assert len(doc["reports"]) == len(frozen) == 20
    for report, pinned in zip(doc["reports"], frozen):
        assert report.keys() == pinned.keys()
        assert report["bound_satisfied"] is pinned["bound_satisfied"]
        for key in ("acceptance_probability", "epsilon", "distance_to_target", "bound"):
            assert abs(report[key] - pinned[key]) <= 1e-12, (key, report[key], pinned[key])


@pytest.mark.parametrize(
    "argv",
    [["verify", "certify", "3,2", "3,1,1", "3,1,1", "--trials", "3"],
     ["verify", "run", "3,2", "3,1,1", "3,1,1", "--state", "{witness}"]],
    ids=["certify", "run"],
)
def test_verifier_reads_no_transposition_image_of_sigma(argv, tmp_path, capsys, monkeypatch):
    # turn reads the factors' images; sigma's own would be D x D.
    xi = wfs_projector(tensor_rep(Partition.parse("3,2"), Partition.parse("3,1,1")),
                       Partition.parse("3,1,1"))
    path = tmp_path / "witness.json"
    path.write_text(serialize.dumps(serialize.state_to_json(max_entangled_over_range(xi))))
    kinds = []
    images = yyrep.transposition_images
    monkeypatch.setattr(yyrep, "transposition_images",
                        lambda rep: kinds.append(rep.kind) or images(rep))
    code, doc = invoke([token.format(witness=path) for token in argv], capsys)
    assert code == 0, doc
    # verify run turns by the factors' irreps; certification turns by none.
    assert kinds == [] if argv[1] == "certify" else "irrep" in kinds and "tensor" not in kinds


def test_verify_spectrum_at_n8_enumerates_no_group_and_builds_no_stack(capsys, monkeypatch):
    # n = 8, D = 64: the stack of 5,2,1 alone would take 1.32 GB; the
    # lattice reads 28 transposition images of each factor instead.
    monkeypatch.delenv("SNVERIFY_MAX_BYTES", raising=False)
    enumerated = []
    enumerate_group = yyrep.enumerate_group
    monkeypatch.setattr(yyrep, "enumerate_group", lambda n: enumerated.append(n) or enumerate_group(n))
    code, doc = invoke(["verify", "spectrum", "5,2,1", "8", "5,2,1"], capsys)
    assert code == 0
    assert doc["eigenvalue_one_multiplicity"] == 1
    assert yyrep.irrep(Partition.parse("5,2,1"))._stack is None
    assert enumerated == []


@pytest.mark.parametrize(
    "argv, expect",
    [
        (["kron", "3,2,1", "3,2,1", "3,2,1", "--route", "both"], {"m": 5, "routes_agree": True}),
        (["wfs", "povm", "3,2,1", "3,2,1"], {"dim": 256}),
    ],
    ids=["kron-both-m5", "povm-d256"],
)
def test_isotypic_commands_at_d256_fit_the_default_budget(argv, expect, capsys, monkeypatch):
    # D = 256: sigma's own stack would take 377 MB; the lattice holds a few
    # D x D arrays.
    monkeypatch.delenv("SNVERIFY_MAX_BYTES", raising=False)
    code, doc = invoke(argv, capsys)
    assert code == 0
    assert expect.items() <= doc.items()


@pytest.mark.parametrize(
    "argv, m",
    [(["5,4", "5,3,1", "4,3,2"], 4), (["6,4", "5,3,2", "4,3,2,1"], 9)],
    ids=["n9-d6804", "n10-d40500"],
)
def test_kron_both_fits_the_default_budget(argv, m, capsys, monkeypatch):
    # The chain walks m + 1 probe rows and no block is built: at D = 6,804
    # e_11 alone would take 370 MB, and at D = 40,500 the 9 blocks of
    # 4,3,2,1, priced at 11.2 GB, refused the command with exit 3.
    monkeypatch.delenv("SNVERIFY_MAX_BYTES", raising=False)
    code, doc = invoke(["kron", *argv, "--route", "both"], capsys)
    assert code == 0, doc
    assert doc == {"m": m, "routes_agree": True}


@pytest.mark.parametrize("route", ["rank", "both"])
def test_kron_rank_route_counts_the_seeds_and_builds_no_block(route, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the count route built irrep blocks")

    monkeypatch.setattr(wfs, "isotypic_block_basis", refuse)
    for triple in (["3,2", "3,1,1", "3,1,1"], ["4,2", "3,2,1", "3,2,1"], ["3", "2,1", "3"]):
        expected = run(["kron", *triple, "--route", "char"]).payload["m"]
        code, doc = invoke(["kron", *triple, "--route", route], capsys)
        assert code == 0, doc
        assert doc["m"] == expected


@pytest.mark.parametrize(
    "argv",
    [["wfs", "project", "3,2,1", "5,1", "4,2"], ["wfs", "povm", "3,2,1", "5,1"],
     ["verify", "spectrum", "5,1", "3,3", "4,2"], ["kron", "3,2,1", "4,1,1", "3,2,1", "--route", "both"],
     ["wfs", "measure", "3,2", "3,1,1", "--seed", "2"],
     ["verify", "run", "3,2", "3,1,1", "3,1,1", "--state", "{phi30}", "--seed", "5"],
     ["verify", "certify", "3,2", "3,1,1", "3,1,1", "--trials", "5", "--seed", "1"],
     ["verify", "certify", "3,2", "3,1,1", "3,1,1", "--trials", "5", "--seed", "1",
      "--perturbation", "0.1"],
     ["certify-lemma", "3,2", "--multiplicity", "2", "--trials", "5", "--seed", "1"]],
    ids=["wfs-project", "wfs-povm", "verify-spectrum", "kron-both", "measure", "run", "certify",
         "certify-perturbed", "certify-lemma"],
)
def test_block_builder_imports_no_random_generator(argv, tmp_path):
    # The builder's probe is arithmetic, and the seeded commands draw from the
    # standard library's random, which import numpy already loads: numpy.random,
    # which costs a command milliseconds to import, stays unloaded.
    path = tmp_path / "phi30.json"
    path.write_text(serialize.dumps(serialize.state_to_json(phi_plus(30))))
    probe = ("import sys; from snverify.cli import main; code = main(sys.argv[1:]); "
             "sys.stderr.write(str('numpy.random' in sys.modules)); sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", probe, *(a.format(phi30=path) for a in argv)],
                          capture_output=True, env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    assert proc.returncode == 0, proc.stderr[-300:]
    assert proc.stderr == b"False"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "spectrum", "5,1", "3,3", "4,2"],
        ["verify", "certify", "3,2", "3,1,1", "3,1,1", "--trials", "5", "--seed", "3"],
        ["wfs", "project", "3,2,1", "5,1", "4,2"],
        ["wfs", "povm", "3,2,1", "5,1"],
        ["state", "psi-lambda", "3,2,1", "5,1", "3,2,1"],
        ["state", "phi-pi", "3,2,1", "5,1", "4,2"],
        ["rep", "ft", "5"],
        ["wfs", "project", "3,2,1", "3,2,1", "3,2,1"],
        ["wfs", "measure", "3,2,1", "3,2,1", "--seed", "4"],
        ["state", "phi-pi", "3,2,1", "3,2,1", "3,2,1"],
        ["verify", "certify", "4,2", "3,2,1", "3,2,1", "--trials", "3", "--seed", "1"],
        ["wfs", "project", "4,3", "4,2,1", "4,2,1"],
        ["verify", "spectrum", "4,3", "4,2,1", "4,2,1"],
        ["verify", "certify", "4,3", "4,2,1", "4,2,1", "--trials", "2", "--seed", "1"],
        ["state", "psi-lambda", "4,3", "4,2,1", "4,2,1"],
        ["verify", "certify", "4,2", "3,2,1", "3,2,1", "--trials", "3", "--seed", "1",
         "--perturbation", "0.1"],
        ["verify", "run", "4,2", "3,2,1", "3,2,1", "--state", "{phi144}", "--seed", "5"],
        ["wfs", "measure", "4,3", "5,1,1", "--state", "{haar210}"],
        ["state", "psi-lambda", "4,3", "5,1,1", "4,2,1", "--state", "{haar210}"],
        ["verify", "run", "4,3", "5,1,1", "4,2,1", "--state", "{phipi210}", "--seed", "1"],
        ["wfs", "measure", "4,3", "4,2,1", "--state", "{haar490}"],
        ["state", "psi-lambda", "4,3", "4,2,1", "4,2,1", "--state", "{haar490}"],
        ["wfs", "povm", "4,3", "4,2,1"],
        ["wfs", "povm", "4,2,1", "4,2,1"],
        ["wfs", "povm", "4,2,1", "4,1,1,1"],
    ],
)
def test_verifier_stdout_is_independent_of_blas_thread_count(argv, tmp_path, haar_state):
    # States on C^D x C^D: Haar at D = 210 and 490, and vec(Xi)/sqrt(rank) of
    # 4,2,1 in 4,3 x 5,1,1.
    states = {
        "phi144": lambda: phi_plus(144),
        "haar210": lambda: StateVector(
            (210, 210), haar_state(210 * 210, np.random.default_rng(0))),
        "haar490": lambda: StateVector(
            (490, 490), haar_state(490 * 490, np.random.default_rng(0))),
        "phipi210": lambda: max_entangled_over_range(
            wfs_projector(tensor_rep(Partition((4, 3)), Partition((5, 1, 1))),
                          Partition((4, 2, 1)))),
    }
    for name, state in states.items():
        if "{" + name + "}" in argv:
            path = tmp_path / f"{name}.json"
            path.write_text(serialize.dumps(serialize.state_to_json(state())))
            argv = [token.replace("{" + name + "}", str(path)) for token in argv]
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        cmd = [sys.executable, "-m", "snverify.cli", *argv]
        outs.append(subprocess.run(cmd, capture_output=True, check=True, env=env).stdout)
    assert outs[0] == outs[1]
    if argv[:2] == ["verify", "run"]:
        # The run's seed samples a label with a block, so the bytes compared
        # include the internal test's.
        assert json.loads(outs[0])["stage"] == "internal-state-test"


@pytest.mark.parametrize(
    "argv, digest",
    [(["state", "psi-lambda", "4,3", "4,2,1", "4,2,1"],
      "8888a2fbfb4d836d9fb27409aac8135b2df44e35ad418eb87b7f09fb0070849f"),
     (["wfs", "measure", "4,3", "4,2,1", "--seed", "5"],
      "37ff84f60da4875c382d1ede834d45090160bf87a09d9c381292d5877aad8a00"),
     (["verify", "run", "3,2", "3,1,1", "3,1,1", "--state", "{haar30}", "--seed", "5"],
      "85eb63c33975c7a0c420be5ddb4764f12f2c7a78475b37bf8b878177508f3120")],
    ids=["psi-lambda", "measure", "run"],
)
def test_block_consumer_stdout_is_pinned(argv, digest, tmp_path, haar_state):
    # One BLAS thread; the run's state is Haar at D = 30, and seed 5, the
    # smallest that samples 3,1,1, reaches the internal test, whose acceptance
    # reads the sampled label's blocks.
    path = tmp_path / "haar30.json"
    state = StateVector((30, 30), haar_state(30 * 30, np.random.default_rng(3)))
    path.write_text(serialize.dumps(serialize.state_to_json(state)))
    cmd = [sys.executable, "-m", "snverify.cli", *(a.format(haar30=path) for a in argv)]
    proc = subprocess.run(cmd, capture_output=True, check=True,
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_state_commands_build_no_dense_projector(capsys, monkeypatch, tmp_path, haar_state):
    # Only wfs project and state phi-pi read Xi_lambda; wfs povm and the state
    # paths read the irrep blocks, and the rank route their seeds.
    def refuse(*args):
        raise AssertionError("a dense projector was built")

    for module, name in ((wfs, "wfs_projector"), (cli, "wfs_projector")):
        monkeypatch.setattr(module, name, refuse)
    path = tmp_path / "haar.json"
    state = StateVector((30, 30), haar_state(30 * 30, np.random.default_rng(1)))
    path.write_text(serialize.dumps(serialize.state_to_json(state)))
    for argv in (["wfs", "measure", "3,2", "3,1,1", "--state", str(path), "--seed", "2"],
                 ["wfs", "measure", "3,2", "3,1,1", "--seed", "2"],
                 ["state", "psi-lambda", "3,2", "3,1,1", "3,1,1", "--state", str(path)],
                 ["verify", "run", "3,2", "3,1,1", "3,1,1", "--state", str(path), "--seed", "2"],
                 ["kron", "3,2", "3,1,1", "3,1,1", "--route", "rank"],
                 ["kron", "3,2", "3,1,1", "3,1,1", "--route", "both"],
                 ["wfs", "povm", "3,2,1", "5,1"]):
        code, doc = invoke(argv, capsys)
        assert code == 0, (argv, doc)


def test_wfs_project_at_n9_fits_a_small_budget():
    # The group-sum route enumerated S_9 and built the 371 MB stack of 8,1.
    env = dict(os.environ, SNVERIFY_MAX_BYTES=str(32 << 20))
    cmd = [sys.executable, "-m", "snverify.cli", "wfs", "project", "8,1", "9", "8,1"]
    proc = subprocess.run(cmd, capture_output=True, env=env)
    assert proc.returncode == 0, proc.stdout
    assert json.loads(proc.stdout)["rank"] == 8


def test_closed_stdout_exits_141_without_a_traceback():
    # rep ft 5 writes 0.6 MB, more than a pipe holds, so the write meets
    # the closed pipe; rep ft 6 meets it between its eight chunks.
    for n, rows in (("5", 120), ("6", 720)):
        cmd = [sys.executable, "-m", "snverify.cli", "rep", "ft", n]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = proc.stdout.read(20)
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 141
        assert head == b'{"rows": %d, "cols"' % rows
        assert stderr == b""


def test_state_phi_plus_round_trips(capsys):
    code, doc = invoke(["state", "phi-plus", "3"], capsys)
    assert code == 0
    state = serialize.state_from_json(doc)
    assert state.registers == (3, 3)


def test_verify_certify_reports(capsys):
    code, doc = invoke(
        ["verify", "certify", "2,1", "2,1", "2,1", "--trials", "5", "--seed", "0"], capsys
    )
    assert code == 0
    assert doc["violations"] == 0
    assert len(doc["corollary_reports"]) == 5
    assert len(doc["theorem_reports"]) == 5
    for report in doc["corollary_reports"]:
        assert report["bound_satisfied"]
        assert report["distance_to_target"] <= report["bound"] + 1e-8


def test_certify_lemma_subcommand(capsys):
    code, doc = invoke(
        ["certify-lemma", "2,1", "--multiplicity", "2", "--trials", "5", "--seed", "0"],
        capsys,
    )
    assert code == 0
    assert doc["violations"] == 0


def test_certify_lemma_subcommand_at_n7(capsys):
    code, doc = invoke(
        ["certify-lemma", "4,3", "--multiplicity", "2", "--trials", "5", "--seed", "0"],
        capsys,
    )
    assert code == 0
    assert doc["violations"] == 0


@pytest.mark.parametrize(
    "argv",
    [["verify", "certify", "1", "1", "1", "--trials", "2"],
     ["verify", "certify", "2,1", "2,1", "2,1", "--perturbation", "0"],
     ["certify-lemma", "3,2", "--multiplicity", "2", "--perturbation", "0", "--trials", "2"]],
    ids=["certify-trivial", "certify-witness", "certify-lemma-witness"],
)
def test_certified_acceptance_is_a_probability(argv, capsys):
    # At the witness, rounding put acceptance up to 3 ulp above 1 and
    # epsilon below 0.
    code, doc = invoke(argv, capsys)
    assert code == 0
    reports = [report for key in ("reports", "corollary_reports", "theorem_reports")
               for report in doc.get(key, [])]
    assert reports
    for report in reports:
        assert report["acceptance_probability"] <= 1.0 and report["epsilon"] >= 0.0, report


def test_certify_lemma_at_multiplicity_30_fits_the_default_budget(capsys, monkeypatch):
    # I_30 x rho^(3,1,1), D = 180: the 900 dense target columns were priced
    # at 933,120,000 B; the closed-form distance holds a few D x D arrays.
    monkeypatch.delenv("SNVERIFY_MAX_BYTES", raising=False)
    code, doc = invoke(
        ["certify-lemma", "3,1,1", "--multiplicity", "30", "--trials", "2", "--seed", "1"], capsys
    )
    assert code == 0, doc
    assert doc["violations"] == 0 and len(doc["reports"]) == 2


def test_certify_lemma_fits_the_trial_price_with_no_representation_built(capsys, monkeypatch):
    # I_2 x rho^(5,4), D = 84: the dense trial state was priced at 451,584 B.
    # The dense representation's 8 Kronecker images (508,032 B) were priced
    # and built, though the lemma reads only the dimensions, and exited 3
    # under this budget.
    monkeypatch.setenv("SNVERIFY_MAX_BYTES", "480000")
    argv = ["certify-lemma", "5,4", "--multiplicity", "2", "--trials", "2"]
    code, doc = invoke(argv, capsys)
    assert code == 0, doc
    assert doc["violations"] == 0 and len(doc["reports"]) == 2

    def no_rep(*args, **kwargs):
        raise AssertionError("certify-lemma built a representation")

    monkeypatch.setattr(yyrep, "identity_times_irrep", no_rep)
    monkeypatch.setattr(yyrep.GroupRep, "__post_init__", no_rep)
    assert invoke(argv, capsys) == (code, doc)


def test_verify_run_prices_the_split_before_it_runs(capsys, monkeypatch):
    # 3,1,1 in 3,2 x 3,1,1, D = 30, m d_lambda = 12: t is read from Z, priced
    # at 4 times Z's 12 x 30 complex entries, 11,520 B.  That is below the
    # measurement's price, so the budget is set for the split's check alone.
    # The state file's price is larger still, so the state is handed over.
    xi = wfs_projector(tensor_rep(Partition.parse("3,2"), Partition.parse("3,1,1")),
                       Partition.parse("3,1,1"))
    witness = max_entangled_over_range(xi).amplitudes  # always samples 3,1,1
    monkeypatch.setattr(cli, "_load_state", lambda path: witness)
    traces, read = [], verifier.block_traces
    monkeypatch.setattr(verifier, "block_traces", lambda *args: traces.append(args) or read(*args))
    argv = ["verify", "run", "3,2", "3,1,1", "3,1,1", "--state", "witness.json"]
    codes = []
    for budget in (11_520 - 1, 11_520):
        def check(nbytes, what, budget=budget):
            with monkeypatch.context() as scoped:
                scoped.setenv("SNVERIFY_MAX_BYTES", str(budget))
                require_bytes(nbytes, what)

        monkeypatch.setattr(verifier, "require_bytes", check)
        code, doc = invoke(argv, capsys)
        codes.append(code)
        if code == 3:
            assert doc["error"].startswith("the internal test's split at D = 30: 11520 B")
            assert traces == []
    assert codes == [3, 0] and doc["accepted"], doc
    assert len(traces) == 1


def test_certify_reports_min_slack_and_degenerate_trials(capsys, monkeypatch):
    code, doc = invoke(
        ["verify", "certify", "2,1", "2,1", "2,1", "--trials", "5", "--seed", "0"], capsys
    )
    assert code == 0
    reports = doc["corollary_reports"] + doc["theorem_reports"]
    assert doc["min_slack"] == min(r["bound"] - r["distance_to_target"] for r in reports)
    assert doc["min_slack"] > 0
    assert doc["degenerate_trials"] == 0

    code, doc = invoke(
        ["certify-lemma", "2,1", "--multiplicity", "2", "--trials", "5", "--seed", "0"],
        capsys,
    )
    assert code == 0
    assert doc["min_slack"] == min(r["bound"] - r["distance_to_target"] for r in doc["reports"])
    assert "degenerate_trials" not in doc

    # Trial states orthogonal to the sampled isotypic component are counted:
    # the whole weight lies on A's level 0.
    monkeypatch.setattr(verifier, "_trial_weights", lambda *args: (0.0, 0.0, 1.0))
    code, doc = invoke(
        ["verify", "certify", "2,1", "2,1", "3", "--trials", "4", "--seed", "0"], capsys
    )
    assert code == 0
    assert doc["degenerate_trials"] == 4
    assert doc["violations"] == 0


def test_verify_run_with_state_file(tmp_path, capsys):
    code, doc = invoke(["state", "phi-plus", "4"], capsys)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    code, doc = invoke(
        ["verify", "run", "2,1", "2,1", "2,1", "--state", str(path), "--seed", "1"], capsys
    )
    assert code == 0
    assert doc["measured"] in {"3", "2,1", "1,1,1"}
    assert isinstance(doc["accepted"], bool)


def test_verify_run_at_d144_fits_the_default_budget_without_sigmas_stack(
    tmp_path, capsys, monkeypatch
):
    # sigma's own stack would take 119 MB; the coset-tree walk holds 16
    # D x D arrays (2.7 MB) and the factors' images.
    monkeypatch.delenv("SNVERIFY_MAX_BYTES", raising=False)
    path = tmp_path / "phi144.json"
    path.write_text(serialize.dumps(serialize.state_to_json(phi_plus(144))))
    stacks = []
    rep_stack = yyrep.rep_stack
    monkeypatch.setattr(yyrep, "rep_stack", lambda rep: stacks.append(rep) or rep_stack(rep))
    code, doc = invoke(
        ["verify", "run", "4,2", "3,2,1", "3,2,1", "--state", str(path), "--seed", "5"], capsys
    )  # seed 5 is the smallest that samples 3,2,1 and so reaches the internal test
    assert code == 0, doc
    assert doc["measured"] == "3,2,1" and doc["stage"] == "internal-state-test"
    assert doc["internal_acceptance_probability"] == pytest.approx(1.0, abs=1e-12)
    assert stacks == []


# m_lam in enumerate_partitions order, computed from single entries by
# the backward Murnaghan-Nakayama recursion (now the oracle of conftest.py).
FROZEN_LIGHTNING = {
    ("5,3,1", "4,3,2"): [0, 1, 3, 3, 5, 10, 5, 4, 14, 10, 15, 5, 7, 13, 16, 16, 13, 3, 3, 12,
                         8, 6, 11, 6, 1, 3, 3, 1, 0, 0],
    ("5,4,3", "4,4,2,2"): [0, 0, 1, 1, 3, 6, 3, 4, 14, 10, 15, 5, 4, 19, 25, 32, 28, 24, 7, 2,
                           14, 31, 37, 19, 66, 46, 23, 44, 28, 7, 15, 17, 22, 64, 40, 45, 49,
                           88, 44, 40, 46, 24, 5, 5, 31, 28, 49, 23, 31, 45, 64, 66, 28, 17, 37,
                           32, 15, 3, 5, 22, 19, 15, 31, 25, 10, 14, 19, 14, 6, 1, 2, 4, 4, 3, 1,
                           0, 0],
}
FROZEN_KRON = [
    (("4,3,2", "4,3,2", "3,3,2,1"), 11),
    (("5,2,2", "4,4,1", "3,3,2,1"), 4),
    (("6,4,2", "5,4,3", "4,4,2,2"), 31),
    (("3,3,3,3", "4,4,4", "6,3,2,1"), 2),
]


def test_character_commands_read_no_backward_entry(capsys, monkeypatch):
    # lightning and kron --route char at n = 9 and 12 read only the forward
    # columns: the single-entry irrep_character raises wherever it is bound.
    def refuse(*args):
        raise AssertionError("irrep_character was called")

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("snverify") and hasattr(
            module, "irrep_character"
        ):
            monkeypatch.setattr(module, "irrep_character", refuse)
    for (mu, nu), ms in FROZEN_LIGHTNING.items():
        code, doc = invoke(["lightning", mu, nu], capsys)
        shapes = enumerate_partitions(Partition.parse(mu).n)
        d = irrep_dimension(Partition.parse(mu)) * irrep_dimension(Partition.parse(nu))
        assert code == 0
        assert doc == {f"({lam})": irrep_dimension(lam) * m / d for lam, m in zip(shapes, ms)}
    for argv, m in FROZEN_KRON:
        code, doc = invoke(["kron", *argv, "--route", "char"], capsys)
        assert code == 0
        assert doc == {"m": m, "route": "character-sum"}


# -------------------------------------------------------------- exit codes

def test_lightning_prices_the_character_walk_before_any_column(capsys, monkeypatch):
    # n = 20: the walk is priced at 20 x 627 entries of 144 B and 4,096 B
    # fixed (1.8 MB), the partitions it reads at 150 kB.
    monkeypatch.setenv("SNVERIFY_MAX_BYTES", "1000000")
    strips = []
    monkeypatch.setattr(characters, "_add_strips", lambda column, r: strips.append(r))
    characters._multiplicities.cache_clear()
    code, doc = invoke(["lightning", "6,5,4,3,2", "5,5,5,5"], capsys)
    assert code == 3
    assert doc["error"].startswith("the character walk of S_20: 1809856 B predicted")
    assert strips == []


def test_a_corrupted_character_column_exits_4(capsys, monkeypatch):
    add_strips = characters._add_strips

    def corrupted(column, r):
        out = add_strips(column, r)
        out[max(out)] += 1
        return out

    monkeypatch.setattr(characters, "_add_strips", corrupted)
    characters._multiplicities.cache_clear()
    code, doc = invoke(["lightning", "3,2", "2,2,1"], capsys)
    assert code == 4
    assert doc["status"] == "numerical-consistency"
    assert "squares do not sum to n!/|C|" in doc["error"]


STAIRCASE = ",".join(str(part) for part in range(10, 0, -1))
IDENTITY_55 = ",".join(str(i) for i in range(1, 56))


def test_rep_char_of_the_staircase_at_n55(capsys):
    code, doc = invoke(["rep", "char", STAIRCASE, IDENTITY_55], capsys)
    assert code == 0
    assert doc == {"chi": [44261486084874072183645699204710400, 0.0]}


def test_rep_char_prices_the_walk_before_any_strip(capsys, monkeypatch):
    # delta_10 holds 58,786 shapes: 8,465,184 B at 144 B each, and 4,096 B fixed.
    monkeypatch.setenv("SNVERIFY_MAX_BYTES", "1000000")
    strips = []
    monkeypatch.setattr(characters, "_add_strips", lambda level, r: strips.append(r))
    characters.irrep_character.cache_clear()
    code, doc = invoke(["rep", "char", STAIRCASE, IDENTITY_55], capsys)
    assert code == 3
    assert doc["error"].startswith(f"the character walk of {STAIRCASE}: 8469280 B predicted")
    assert strips == []


def test_verify_certify_walks_the_character_table_once(capsys, monkeypatch):
    # certify_corollary_bound reads m, d_lambda and D from the characters alone.
    walks = []
    columns = characters.character_columns
    monkeypatch.setattr(characters, "character_columns", lambda n: walks.append(n) or columns(n))
    characters._multiplicities.cache_clear()
    code, doc = invoke(["verify", "certify", "3,2", "3,1,1", "3,1,1", "--trials", "2"], capsys)
    assert code == 0, doc
    assert walks == [5]


def test_invalid_partition_exits_2(capsys):
    code, doc = invoke(["sym", "dim", "1,2"], capsys)
    assert code == 2
    assert doc["status"] == "invalid-argument"


def test_mismatched_degrees_exit_2(capsys):
    code, doc = invoke(["kron", "2,1", "2,1", "3,1"], capsys)
    assert code == 2


def test_resource_limit_exits_3(capsys, monkeypatch):
    monkeypatch.setenv("SNVERIFY_MAX_BYTES", "9000")  # below 24^2 * 16 B
    from snverify.yyrep import fourier_transform_matrix

    fourier_transform_matrix.cache_clear()
    try:
        code, doc = invoke(["rep", "ft", "4"], capsys)
    finally:
        fourier_transform_matrix.cache_clear()
    assert code == 3
    assert doc["status"] == "resource-limit"
    assert "24" in doc["error"]  # the n! memory formula is reported


def test_rep_ft_prices_its_json_before_building_the_transform(capsys, monkeypatch):
    # The float64 transform of S_7 (406 MB) fits the default budget; its JSON
    # (25.4 million entries) does not, so no stack or transform is built.
    monkeypatch.delenv("SNVERIFY_MAX_BYTES", raising=False)
    stacks = []
    rep_stack = yyrep.rep_stack
    monkeypatch.setattr(yyrep, "rep_stack", lambda rep: stacks.append(rep) or rep_stack(rep))
    for n in ("7", "8"):
        code, doc = invoke(["rep", "ft", n], capsys)
        assert code == 3
        assert doc["error"].startswith("the JSON of the ")
    assert stacks == []


@pytest.mark.parametrize(
    "argv",
    [["wfs", "project", "5,3", "4,2,2", "5,3"], ["state", "phi-pi", "5,3", "4,2,2", "5,3"],
     ["state", "psi-lambda", "5,3", "4,2,2", "5,3"]],
    ids=["wfs-project", "phi-pi", "psi-lambda"],
)
def test_square_outputs_price_their_json_before_the_lattice(argv, capsys, monkeypatch):
    # D = 1,568: one byte under the JSON's price, the output is refused
    # before the blocks' arrays, which take seconds, are built.
    def refuse(*args):
        raise AssertionError("the chain ran")

    entries = 1568 * 1568
    price = serialize.HOLDER_BYTES * entries + serialize.ENTRY_BYTES * serialize.CHUNK
    monkeypatch.setenv("SNVERIFY_MAX_BYTES", str(price - 1))
    monkeypatch.setattr(wfs, "tableau_projector", refuse)
    code, doc = invoke(argv, capsys)
    assert code == 3
    assert doc["error"].startswith(f"the JSON of 2458624 complex entries: {price} B")


@pytest.mark.parametrize(
    "argv, digest",
    [(["wfs", "project", "5,3", "4,2,2", "5,3"],
      "a73e6ae0277a7309664b895f28938bbed46ed52f765de0925f577082b98d5fb8"),
     (["state", "phi-pi", "5,3", "4,2,2", "5,3"],
      "e7fcf952e7c6236dc8b97609d74947856e8531e6b3600edad781d059fe0805b8")],
    ids=["wfs-project", "phi-pi"],
)
def test_square_outputs_at_d1568_fit_the_default_budget(argv, digest):
    # 2,458,624 entries, 62 MB of JSON: the digests are of json.dumps of the
    # payload in list form, the writer's definition.
    env = {k: v for k, v in os.environ.items() if k != "SNVERIFY_MAX_BYTES"}
    cmd = [sys.executable, "-m", "snverify.cli", *argv]
    proc = subprocess.run(cmd, capture_output=True, env=dict(env, OPENBLAS_NUM_THREADS="1"))
    assert proc.returncode == 0, proc.stdout[:300]
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


@pytest.mark.parametrize("threads", ["1", "2"])
def test_rep_ft_6_output_is_pinned(threads):
    # 12.7 MB of JSON, written in eight chunks that each group their
    # entries by one sort of packed keys.
    cmd = [sys.executable, "-m", "snverify.cli", "rep", "ft", "6"]
    proc = subprocess.run(cmd, capture_output=True,
                          env=dict(os.environ, OPENBLAS_NUM_THREADS=threads))
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert (hashlib.sha256(proc.stdout).hexdigest()
            == "13953213873c5ea7792f131af9e2019370ce0d82103325fd601a23f47852fcea")


@pytest.mark.parametrize("budget, admitted", [("6300000", True), ("6100000", False)])
def test_plain_and_pretty_output_have_one_price(budget, admitted, capsys, monkeypatch):
    # rep ft 5 has 14,400 entries, priced at 6.2 MB in either mode: one
    # writer writes both.
    monkeypatch.setenv("SNVERIFY_MAX_BYTES", budget)
    for argv in (["rep", "ft", "5"], ["rep", "ft", "5", "--pretty"]):
        code, doc = invoke(argv, capsys)
        assert code == (0 if admitted else 3)
        assert admitted or doc["error"].startswith("the JSON of the 120 x 120 Fourier transform")


def test_sym_dim_is_priced_before_the_hook_length_formula(capsys):
    tracemalloc.start()
    try:
        code, doc = invoke(["sym", "dim", "1000000000"], capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert doc["error"].startswith("the dimension of 1000000000")
    assert peak < 1 << 20  # refused before its 8 GB column list
    assert invoke(["sym", "dim", "1000"], capsys) == (0, {"d": 1})


@pytest.mark.parametrize(
    "argv,content",
    [
        (["wfs", "measure", "2,1", "2,1", "--state", "{missing}"], None),
        (["verify", "run", "2,1", "2,1", "2,1", "--state", "{path}"], "not json"),
        (
            ["state", "psi-lambda", "2,1", "2,1", "2,1", "--state", "{path}"],
            '{"registers": [4, 4], "amplitudes": [[1.0, 0.0], [0.5]]}',
        ),
        (
            ["wfs", "measure", "2,1", "2,1", "--state", "{path}"],
            '{"registers": [4], "amplitudes": [[NaN, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}',
        ),
        (
            ["wfs", "measure", "2,1", "2,1", "--state", "{path}"],
            '{"registers": [8], "amplitudes": [[1.0, 0.0]' + ', [0.0, 0.0]' * 7 + ']}',
        ),
        (
            ["verify", "run", "2,1", "2,1", "2,1", "--state", "{path}"],
            '{"registers": [4], "amplitudes": [[1.0, 0.0]' + ', [0.0, 0.0]' * 3 + ']}',
        ),
        (
            ["wfs", "measure", "2,1", "2,1", "--state", "{path}"],
            '{"registers": [4], "amplitudes": [["1.0", "0"]' + ', ["0", "0"]' * 3 + ']}',
        ),
        (
            ["wfs", "measure", "2,1", "2,1", "--state", "{path}"],
            '{"registers": [4], "amplitudes": [[1.0, null]' + ', [0.0, 0.0]' * 3 + ']}',
        ),
        (
            ["wfs", "measure", "2,1", "2,1", "--state", "{path}"],
            '{"registers": [4], "amplitudes": [[1.0, 0.0, 0.0]' + ', [0.0, 0.0, 0.0]' * 3 + ']}',
        ),
        (["wfs", "measure", "2,1", "2,1", "--state", "{path}"], '{"registers": [4], "amplitudes": 1}'),
        # Unit states but for their JSON booleans, which NumPy reads as 1 and 0.
        (
            ["wfs", "measure", "2,1", "2,1", "--state", "{path}"],
            '{"registers": [4], "amplitudes": [[true, false]' + ', [false, false]' * 3 + ']}',
        ),
        (
            ["wfs", "measure", "2,1", "2,1", "--state", "{path}"],
            '{"registers": [4], "amplitudes": [[true, 0.0]' + ', [0.0, 0.0]' * 3 + ']}',
        ),
    ],
    ids=[
        "missing-file", "not-json", "malformed-amplitude", "nan-amplitude",
        "measure-neither-d-nor-d2", "run-not-d2", "string-amplitude", "null-amplitude",
        "triple-amplitude", "amplitudes-not-a-list", "boolean-amplitudes", "boolean-beside-floats",
    ],
)
def test_bad_state_file_exits_2(argv, content, tmp_path, capsys):
    path = tmp_path / "state.json"
    if content is not None:
        path.write_text(content)
    argv = [a.format(missing=tmp_path / "absent.json", path=path) for a in argv]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 2
    assert json.loads(out)["status"] == "invalid-argument"


@pytest.mark.parametrize("argv", [["wfs", "measure", "2,1", "2,1"],
                                  ["state", "psi-lambda", "2,1", "2,1", "2,1"],
                                  ["verify", "run", "2,1", "2,1", "2,1"]], ids=" ".join)
def test_overflowing_state_file_exits_2_with_nothing_on_stderr(argv, tmp_path):
    # Finite amplitudes whose norm overflows: stderr is kept for timing and
    # progress, so the unit-norm check prints no NumPy warning.
    path = tmp_path / "state.json"
    path.write_text('{"registers": [4, 4], "amplitudes": [[1e308, 1e308]' + ', [0, 0]' * 15 + ']}')
    cmd = [sys.executable, "-m", "snverify.cli", *argv, "--state", str(path)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["status"] == "invalid-argument"
    assert proc.stderr == ""


@pytest.mark.parametrize("registers", ["[-4, -4]", "[true, 16]", "[16.0]", "[4, -2, -2]", "[]",
                                       '"44"'])
@pytest.mark.parametrize("argv", [["wfs", "measure", "2,1", "2,1"],
                                  ["state", "psi-lambda", "2,1", "2,1", "2,1"],
                                  ["verify", "run", "2,1", "2,1", "2,1"]], ids=" ".join)
def test_state_file_registers_must_be_positive_integers(argv, registers, tmp_path, capsys):
    # phi-plus on C^4 x C^4 under registers whose product is 16, or none.
    amplitudes = json.dumps([[0.5 * (i % 5 == 0), 0.0] for i in range(16)])
    path = tmp_path / "state.json"
    path.write_text(f'{{"registers": {registers}, "amplitudes": {amplitudes}}}')
    code = main([*argv, "--state", str(path)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    assert doc["status"] == "invalid-argument"
    assert "registers" in doc["error"], doc


def test_oversized_state_file_exits_3_before_it_is_parsed(tmp_path, capsys, monkeypatch):
    path = tmp_path / "state.json"
    path.write_text(serialize.dumps(serialize.state_to_json(phi_plus(30))))
    size = path.stat().st_size

    def refuse(fh):
        raise AssertionError("json.load ran before the state file was priced")

    monkeypatch.setattr(json, "load", refuse)
    monkeypatch.setenv("SNVERIFY_MAX_BYTES", str(serialize.STATE_FILE_FACTOR * size - 1))
    code, doc = invoke(["wfs", "measure", "3,2", "3,1,1", "--state", str(path)], capsys)
    assert code == 3
    assert doc["error"].startswith(f"the state file {str(path)!r} of {size} B")


@pytest.mark.parametrize("pairs", ["haar", "zeros"])
def test_state_file_load_holds_less_than_its_price(pairs, tmp_path, haar_state):
    # 44,100 pairs: a Haar state's full-precision texts, and [0,0], the
    # shortest pair text, at 6 B a pair.
    path = tmp_path / "state.json"
    if pairs == "haar":
        psi = haar_state(210 * 210, np.random.default_rng(0))
        path.write_text(serialize.dumps(serialize.state_to_json(StateVector((210, 210), psi))))
    else:
        path.write_text('{"registers": [210, 210], "amplitudes": [[1,0]' + ",[0,0]" * 44099 + "]}")
    tracemalloc.start()
    try:
        amplitudes = cli._load_state(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert amplitudes.shape == (44100,)
    price = serialize.STATE_FILE_FACTOR * path.stat().st_size
    assert peak < price, (peak, price)


def test_unknown_subcommand_exits_2(capsys):
    # Usage errors leave as one JSON document too, not as argparse's usage text.
    for argv in (["frobnicate"], ["kron", "3"], []):
        assert main(argv) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "invalid-argument"


# ------------------------------------------------------- one-command parser

def _sample_argv(words, arguments):
    """words and a value for every argument: an option's last choice, else
    by type, else a partition."""
    argv = list(words)
    for arg in arguments:
        name, keywords = (arg, {}) if isinstance(arg, str) else arg
        value = (keywords["choices"][-1] if "choices" in keywords
                 else {int: "3", float: "0.5"}.get(keywords.get("type"), "2,1"))
        argv += [name, value] if name.startswith("--") else [value]
    return argv


def _table_argv():
    for command, (_, _, arguments) in cli._COMMANDS.items():
        if isinstance(arguments, dict):
            for action, action_arguments in arguments.items():
                yield _sample_argv([command, action], action_arguments)
        else:
            yield _sample_argv([command], arguments)


@pytest.mark.parametrize("argv", list(_table_argv()), ids=" ".join)
def test_one_command_parser_parses_like_the_whole_table(argv):
    whole = cli.build_parser().parse_args(argv)
    assert cli.build_parser(argv[0]).parse_args(argv) == whole
    other = "sym" if argv[0] != "sym" else "kron"
    with pytest.raises(InvalidArgumentError, match="invalid choice"):
        cli.build_parser(argv[0]).parse_args([other, *argv[1:]])


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["-h"], ["kron", "--help"], ["verify", "--help"], ["verify", "run", "--help"],
     ["foo"], [], ["kron", "3,2"], ["rep", "bogus", "3"], ["lightning", "2,1", "2,1", "extra"],
     ["verify", "run", "2,1", "2,1", "2,1"], ["sym"]],
    ids=repr,
)
def test_help_and_usage_errors_match_the_whole_table(argv, capsys, monkeypatch):
    def outcome():
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    one_command = outcome()
    whole = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: whole())
    assert outcome() == one_command


def test_cli_process_prints_the_run_payload_and_main_freezes_the_heap_once():
    argv = ["lightning", "4,4", "3,3,2"]
    proc = subprocess.run([sys.executable, "-m", "snverify.cli", *argv],
                          capture_output=True, check=True)
    assert proc.stdout.decode() == serialize.dumps(run(argv).payload) + "\n"
    # Importing freezes nothing; main freezes, and a second main adds nothing.
    script = ("import gc, sys; import snverify.cli as cli; counts = [gc.get_freeze_count()]\n"
              "for _ in range(2):\n"
              "    cli.main(sys.argv[1:]); counts.append(gc.get_freeze_count())\n"
              "print(*counts, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, check=True)
    imported, first, second = map(int, proc.stderr.split())
    assert imported == 0 < first
    assert second <= first


@pytest.mark.parametrize(
    "argv",
    [
        ["rep", "ft", "-1"],
        ["verify", "certify", "2,1", "2,1", "2,1", "--trials", "-1"],
        ["certify-lemma", "2,1", "--trials", "-2"],
        ["verify", "certify", "2,1", "2,1", "2,1", "--perturbation", "nan"],
        ["certify-lemma", "2,1", "--perturbation", "inf"],
        ["certify-lemma", "2,1", "--trials", "1", "--perturbation", "1e308"],
        ["certify-lemma", "2,1", "--trials", "1", "--perturbation", "1e200"],
        ["certify-lemma", "2,1", "--multiplicity", "1" + "0" * 200],
        ["wfs", "measure", "2,1", "2,1", "--seed", "-1"],
        ["selftest", "--n-max", "0"],
        ["selftest", "--n-max", "-3"],
        ["selftest", "--n-max", "1"],
    ],
    ids=[
        "ft-negative-n",
        "certify-negative-trials",
        "lemma-negative-trials",
        "nan-perturbation",
        "inf-perturbation",
        "overflowing-perturbation",
        "overflowing-perturbation-square",
        "multiplicity-beyond-floats",
        "negative-seed",
        "selftest-n-max-0",
        "selftest-n-max-negative",
        "selftest-n-max-1",
    ],
)
def test_out_of_domain_input_exits_2(argv, capsys):
    # One JSON document on stdout and nothing on stderr: no traceback, and no
    # warning, which is raised here.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert json.loads(out)["status"] == "invalid-argument"
    assert err == ""


def test_exact_center_state_certifies(capsys):
    # With no perturbation the acceptance can round to just above 1.
    for argv in (["certify-lemma", "2,1"], ["verify", "certify", "3,1", "2,1,1", "3,1"]):
        code, doc = invoke([*argv, "--trials", "2", "--perturbation", "0"], capsys)
        assert code == 0
        assert doc["min_slack"] > -1e-8


@pytest.mark.parametrize(
    "argv",
    [
        ["rep", "matrix", "5,4,3,2,1", ",".join(str(k) for k in range(15, 0, -1))],
        ["state", "phi-plus", "100000"],
        ["sym", "partitions", "200"],
        ["certify-lemma", "2,1", "--trials", "1000000"],
        ["verify", "spectrum", "4,3,1", "4,3,1", "4,3,1"],
    ],
    ids=["irrep-d292864", "phi-plus", "partitions-200", "lemma-reports", "blocks-d4900"],
)
def test_oversized_input_exits_3_before_allocating(argv, capsys, monkeypatch):
    monkeypatch.delenv("SNVERIFY_MAX_BYTES", raising=False)
    start = time.perf_counter()
    code, doc = invoke(argv, capsys)
    assert time.perf_counter() - start < 2.0
    assert code == 3
    assert "byte budget" in doc["error"]


@pytest.mark.parametrize(
    "argv",
    [["verify", "certify", "6,4", "5,3,2", "4,3,2,1", "--trials", "100"],
     ["certify-lemma", "2,1", "--multiplicity", "100000"]],
    ids=["certify-n10", "lemma-multiplicity-100000"],
)
def test_certification_reaches_n10_and_large_multiplicities(argv, capsys, monkeypatch):
    # D = 40,500 with m d_lambda D = 1.2 10^8, and the lemma at D = 200,000:
    # a trial draws three level weights, so only the reports are priced.
    monkeypatch.delenv("SNVERIFY_MAX_BYTES", raising=False)
    code, doc = invoke(argv, capsys)
    assert code == 0, doc
    assert doc["violations"] == 0


def test_malformed_byte_budget_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("SNVERIFY_MAX_BYTES", "abc")
    code, doc = invoke(["sym", "dim", "2,1"], capsys)
    assert code == 2
    assert "SNVERIFY_MAX_BYTES" in doc["error"]


# ------------------------------------------------------------- determinism

def test_wfs_measure_is_seed_deterministic(capsys):
    _, a = invoke(["wfs", "measure", "2,1", "2,1", "--seed", "11"], capsys)
    _, b = invoke(["wfs", "measure", "2,1", "2,1", "--seed", "11"], capsys)
    assert a == b


def test_report_dicts_are_the_reports_fields_in_order():
    # The certification document copies each report's fields, not
    # dataclasses.asdict's deep copy: the same keys, order and floats.
    trials = verifier.certify_corollary_bound(Partition((2, 1)), Partition((2, 1)),
                                              Partition((2, 1)), 3, 4, 0.2)
    reports = [t.corollary for t in trials] + [t.theorem for t in trials]
    args = argparse.Namespace(trials=3, seed=4)
    doc = cli._reports_doc(args, reports=reports)
    assert [list(d.items()) for d in doc["reports"]] == [list(asdict(r).items()) for r in reports]


def test_certify_is_seed_deterministic(capsys):
    args = ["verify", "certify", "2,1", "2,1", "2,1", "--trials", "3", "--seed", "5"]
    _, a = invoke(args, capsys)
    _, b = invoke(args, capsys)
    assert a == b


def test_selftest_stdout_is_byte_identical_across_processes():
    cmd = [sys.executable, "-m", "snverify.cli", "selftest", "--n-max", "3", "--trials", "10", "--seed", "7"]
    a = subprocess.run(cmd, capture_output=True, check=True)
    b = subprocess.run(cmd, capture_output=True, check=True)
    assert a.stdout == b.stdout
    # the group contractions must not depend on the BLAS thread count
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        c = subprocess.run(cmd, capture_output=True, check=True, env=env)
        assert c.stdout == a.stdout, f"OPENBLAS_NUM_THREADS={threads}"
    doc = json.loads(a.stdout)
    assert doc["all_passed"] is True
    assert {suite["name"]: suite["passed"] for suite in doc["suites"]} == {
        "schur-orthogonality": 13, "character-orthogonality": 13,
        "twisted-character-identity": 62, "wfs-povm": 149, "gpe-kraus": 35,
        "kronecker-routes": 48, "lightning-distribution": 35, "vectorization": 300,
        "entangled-subspaces": 7, "verifier": 36,
    }
    # timings go to stderr only, so they cannot break determinism
    assert b"s" in a.stderr


def test_selftest_block_states_must_be_fixed_points(monkeypatch):
    # Blocks turned by a random rotation stay orthonormal but intertwine
    # nothing, so their block states leave the internal test's fixed points.
    from snverify import selftest

    blocks = selftest.isotypic_block_basis

    def rotated(rep, shape):
        q = np.linalg.qr(np.random.default_rng(0).standard_normal((rep.dim, rep.dim)))[0]
        return blocks(rep, shape) @ q.T

    monkeypatch.setattr(selftest, "isotypic_block_basis", rotated)
    doc = selftest.suite_entangled(3, 7).to_json()
    assert (doc["passed"], doc["failed"]) == (5, 2)
    assert doc["failures"] == ["m=1 span overlap", "containment"]


def test_selftest_exit_nonzero_on_failure(capsys, monkeypatch):
    import snverify.cli as cli_mod

    def broken(args):
        return {"all_passed": False, "suites": []}

    monkeypatch.setitem(cli_mod._COMMANDS, "selftest", (broken, *cli_mod._COMMANDS["selftest"][1:]))
    code, doc = invoke(["selftest"], capsys)
    assert code == 1


def test_pretty_mode_rounds_but_plain_does_not(capsys):
    code = main(["verify", "spectrum", "2,1", "2,1", "2,1", "--pretty"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["s"] == 0.5  # rounded to 6 significant digits


@pytest.mark.parametrize(
    "argv, digest",
    [(["verify", "spectrum", "5,1", "3,3", "4,2"],
      "09dca4cf2e8644c7a0d7f32f696d0418365c7436bcb7d7c4163c0ec53302505f"),
     (["rep", "ft", "4"], "96ae1ff75bfc9dc0599088c81229c9c8e5e4e2769f47df461fe7f9b658aacf55")],
    ids=["spectrum", "ft4"],
)
def test_pretty_stdout_is_pinned(argv, digest, capsys):
    # Digests of the writer that made a new float for every rounded entry.
    assert main(argv + ["--pretty"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_pretty_phi_pi_at_d_1568_is_pinned_under_the_default_budget():
    # 98 MB of indented text, 2,458,624 entries written a chunk at a time; the
    # digest is json.dumps(indent=2) of the rounded list form, made at a
    # budget raised past that form's 1.2 GB.
    env = {k: v for k, v in os.environ.items() if k != "SNVERIFY_MAX_BYTES"}
    cmd = [sys.executable, "-m", "snverify.cli", "state", "phi-pi", "5,3", "4,2,2", "5,3",
           "--pretty"]
    digest = hashlib.sha256()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env) as proc:
        for block in iter(lambda: proc.stdout.read(1 << 20), b""):
            digest.update(block)
    assert proc.returncode == 0
    assert digest.hexdigest() == "9fddb176f97dd736c08dc457e44e5791d5417c293c59fcdaf91bf98f1d9177b5"


def test_rounding_keeps_a_float_it_leaves_unchanged():
    half, third = 0.5, 1 / 3
    rounded = _round_floats({"a": [half, third]})["a"]
    assert rounded[0] is half
    assert rounded[1] == 0.333333
    spectrum = run(["verify", "spectrum", "5,1", "3,3", "4,2"], pretty=True).payload["spectrum"]
    assert len({id(v) for v in spectrum}) == 3  # the three levels' shared floats


def _list_form(payload) -> dict:
    """The payload with every complex array as its list of [re, im] pairs."""
    return json.loads(json.dumps(payload, default=serialize.ComplexArray.tolist))


@pytest.mark.parametrize(
    "argv",
    [
        ["rep", "ft", "5"],
        ["wfs", "project", "3,2,1", "5,1", "4,2"],
        ["state", "psi-lambda", "3,2,1", "5,1", "3,2,1"],
        ["wfs", "measure", "2,1", "2,1", "--state", "{phi16}", "--seed", "3"],
        ["state", "phi-pi", "2,1", "2,1", "2,1", "--pretty"],
        ["rep", "ft", "6"],
        ["rep", "ft", "7"],
    ],
)
def test_stdout_is_json_dumps_of_the_list_form_payload(argv, tmp_path, capsys):
    state = tmp_path / "phi16.json"
    state.write_text(json.dumps(_list_form(serialize.state_to_json(phi_plus(4)))))
    argv = [token.format(phi16=state) for token in argv]
    plain = [token for token in argv if token != "--pretty"]
    result = run(plain)  # rep ft 7 exits 3: its one document is the error
    payload = _list_form(result.payload)
    if plain != argv:
        expected = json.dumps(_round_floats(payload), indent=2)
    else:
        expected = json.dumps(payload)
    assert main(argv) == result.exit_code
    assert capsys.readouterr().out == expected + "\n"


# -------------------------------------------------------------- argv fuzz

_BAD_PARTITION = st.sampled_from(["", "0", "-1", "1,2", "2,,1", "3,0", "2.5", "x"])
_BAD_PERMUTATION = st.sampled_from(["1,1", "0,1", "2,3", ""])
_HOSTILE_INT = st.sampled_from(
    ["-1", "-7", "1" + "0" * 12, str(2**63), "1" + "0" * 30, "1e3", "nan", "", "x"]
)
_INT = st.one_of(st.integers(0, 5).map(str), _HOSTILE_INT)
_FLOAT = st.one_of(
    st.floats(-10, 10, allow_nan=False).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "1e-300", "0", "x"]),
)
_STATE = st.sampled_from(["{dir}/phi4.json", "{dir}/phi16.json", "{dir}/absent.json"])
_STRAY = st.sampled_from(["--bogus", "-x", "--seed", "--trials", "--route", "--state", "--pretty"])

# Subcommand -> (positional slots, options); "partition" and "permutation"
# slots are drawn mostly at one n <= 5, so that some argv are valid.
_GRAMMAR = {
    ("sym", "partitions"): ([_INT], {}),
    ("sym", "dim"): (["partition"], {}),
    ("sym", "tableaux"): (["partition"], {}),
    ("rep", "matrix"): (["partition", "permutation"], {}),
    ("rep", "char"): (["partition", "permutation"], {}),
    ("rep", "ft"): ([_INT], {}),
    ("wfs", "project"): (["partition"] * 3, {}),
    ("wfs", "povm"): (["partition"] * 2, {}),
    ("wfs", "measure"): (["partition"] * 2, {"--seed": _INT, "--state": _STATE}),
    ("kron",): (["partition"] * 3, {"--route": st.sampled_from(["char", "rank", "both", "x"])}),
    ("lightning",): (["partition"] * 2, {}),
    ("state", "phi-plus"): ([_INT], {}),
    ("state", "phi-pi"): (["partition"] * 3, {}),
    ("state", "psi-lambda"): (["partition"] * 3, {"--state": _STATE}),
    ("verify", "spectrum"): (["partition"] * 3, {}),
    ("verify", "certify"): (
        ["partition"] * 3,
        {"--trials": _INT, "--seed": _INT, "--perturbation": _FLOAT},
    ),
    ("verify", "run"): (["partition"] * 3, {"--state": _STATE, "--seed": _INT}),
    ("certify-lemma",): (
        ["partition"],
        {"--multiplicity": _INT, "--trials": _INT, "--seed": _INT, "--perturbation": _FLOAT},
    ),
}


@st.composite
def _argv(draw):
    """A subcommand with its arguments as pieces (a positional, or a flag
    with its value); pieces may be dropped and stray tokens inserted."""
    command = draw(st.sampled_from(sorted(_GRAMMAR)))
    slots, options = _GRAMMAR[command]
    n = draw(st.integers(1, 5))
    of_n = {
        "partition": st.sampled_from([str(p) for p in enumerate_partitions(n)]),
        "permutation": st.permutations(range(1, n + 1)).map(lambda p: ",".join(map(str, p))),
    }
    bad = {"partition": _BAD_PARTITION, "permutation": _BAD_PERMUTATION}
    pieces = []
    for slot in slots:
        if isinstance(slot, str):  # one draw in ten may be malformed
            slot = of_n[slot] if draw(st.integers(0, 9)) else st.one_of(bad[slot], of_n[slot])
        pieces.append([draw(slot)])
    for flag in sorted(options):
        if draw(st.booleans()):
            pieces.append([flag, draw(options[flag])])
    if pieces and draw(st.integers(0, 4)) == 0:
        del pieces[draw(st.integers(0, len(pieces) - 1))]
    argv = [*command, *(token for piece in pieces for token in piece)]
    if draw(st.integers(0, 4)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(_STRAY))
    return argv


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=_argv())
def test_fuzzed_argv_gives_one_json_document_and_a_contract_exit_code(
    argv, tmp_path, monkeypatch
):
    # Large sizes are reached only through a 1 MiB budget, never by allocating them.
    monkeypatch.setenv("SNVERIFY_MAX_BYTES", str(1 << 20))
    for name, d in (("phi4", 2), ("phi16", 4)):
        path = tmp_path / f"{name}.json"
        if not path.exists():
            path.write_text(serialize.dumps(serialize.state_to_json(phi_plus(d))))
    argv = [token.format(dir=tmp_path) for token in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code in {0, 2, 3, 4}, argv
    json.loads(out.getvalue(), parse_constant=_reject_constant)
