"""Tests of the benchmark itself: span arithmetic, the traced run, the
output checker and the per-child safety net.

    python3 -m pytest clibench -q

The traced-run test runs every workload command three times (untraced,
traced, traced) and takes about two minutes.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import run
from checks import Mismatch, Tolerance, check_output, CHECKS
from spans import covered_time, self_times

TOL = Tolerance(atol=1e-9, bound_slack=1e-8)


def test_self_times_on_a_synthetic_span_tree():
    # cli.main [0, 10] holds yyrep.a [1, 4] and cli.helper [5, 9];
    # cli.helper holds wfs.b [6, 7]; wfs.b holds yyrep.a [6.25, 6.5].
    names = ["cli.main", "yyrep.a", "cli.helper", "wfs.b", "yyrep.a"]
    parents = [-1, 0, 0, 2, 3]
    starts = [0.0, 1.0, 5.0, 6.0, 6.25]
    ends = [10.0, 4.0, 9.0, 7.0, 6.5]
    assert self_times(names, parents, starts, ends) == {
        "cli.main": 3.0, "yyrep.a": 3.25, "cli.helper": 3.0, "wfs.b": 0.75,
    }
    # Outermost spans below cli: yyrep.a [1, 4] and wfs.b [6, 7]; the
    # yyrep.a inside wfs.b is already covered.
    assert covered_time(names, parents, starts, ends, "cli") == 4.0


def _commands(seed: int, workdir: Path) -> tuple[dict, dict[str, list[dict]]]:
    cfg = run.load_config()
    commands = run.make_inputs(cfg, seed, workdir)
    by_workload: dict[str, list[dict]] = {}
    for c in commands:
        by_workload.setdefault(c["workload"], []).append(c)
    return cfg, by_workload


def test_inputs_are_a_function_of_the_seed(tmp_path):
    dirs = {name: tmp_path / name for name in ("a", "b", "c")}
    for d in dirs.values():
        d.mkdir()
    first, again, other = (_commands(seed, dirs[d])[1] for seed, d in ((5, "a"), (5, "b"), (6, "c")))
    names = lambda cmds: [[Path(t).name for t in c["argv"]] for c in cmds]  # noqa: E731
    assert [names(first[w]) for w in first] == [names(again[w]) for w in again]
    assert names(first["verifier-n5n6"]) != names(other["verifier-n5n6"])
    for state in ("state400.json", "state900.json"):
        assert (dirs["a"] / state).read_bytes() == (dirs["b"] / state).read_bytes()
        assert (dirs["a"] / state).read_bytes() != (dirs["c"] / state).read_bytes()


def test_traced_stdout_is_identical_and_counts_repeat(tmp_path):
    """One untraced and two traced passes of every workload: the run marks
    a command failed when traced stdout differs from the untraced stdout or
    when counts differ between the traced passes."""
    cfg, by_workload = _commands(3, tmp_path)
    for workload, commands in by_workload.items():
        r = run.Run(cfg, commands, tmp_path, time.monotonic() + 600)
        assert r.run_pass(False) and r.run_pass(True) and r.run_pass(True)
        assert r.failures == [], workload
        (plain,), (first, second) = r.untraced, r.traced
        for a, b, c in zip(plain.outcomes, first.outcomes, second.outcomes):
            assert a.stdout == b.stdout == c.stdout
            assert b.trace is not None and b.trace["spans"] > 0
            assert (b.trace["calls"], b.trace["counts"]) == (c.trace["calls"], c.trace["counts"])
        layers = run.per_layer(["trace.coverage", "yyrep.rep_evaluate.calls"], r)
        assert layers["trace.coverage"] >= 0.9, workload
        assert layers["yyrep.rep_evaluate.calls"] > 0


def test_a_traced_stdout_change_is_a_failure(tmp_path):
    cfg, by_workload = _commands(3, tmp_path)
    cmd = by_workload["characters-n9"][3]  # lightning 4,4 3,3,2
    r = run.Run(cfg, [cmd], tmp_path, time.monotonic() + 600)
    r.run_pass(False)
    r.untraced_stdout[0] = r.untraced_stdout[0].replace(b"0.0", b"0.00", 1)
    r.run_pass(True)
    assert len(r.failures) == 1 and "stdout differs" in r.failures[0]


def test_only_commands_that_fit_are_started(tmp_path):
    cfg, by_workload = _commands(3, tmp_path)
    r = run.Run(cfg, by_workload["characters-n9"][3:], tmp_path, time.monotonic() + 600)
    assert r.run_pass(False)
    attempted = r.attempted
    assert not r.run_pass(False, stop_at=time.monotonic())
    assert r.attempted == attempted and len(r.untraced) == 1


def _projector(rank: int, dim: int) -> np.ndarray:
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((dim, dim)))
    return q[:, :rank] @ q[:, :rank].T


def _pairs(a: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(a, dtype=complex).reshape(-1)]


def _reports(n, factor, floor):
    out = []
    for k in range(n):
        p = floor + (1 - floor) * (k + 1) / (n + 1)
        bound = factor * math.sqrt(2 * (1 - p))
        out.append({"acceptance_probability": p, "epsilon": 1 - p, "distance_to_target": bound / 2,
                    "bound": bound, "bound_satisfied": True})
    return out


def _set(path, value):
    def corrupt(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value(target[path[-1]]) if callable(value) else value
    return corrupt


P = _projector(3, 6)
M = P / math.sqrt(3)
F = np.fft.fft(np.eye(5)) / math.sqrt(5)
CASES = {
    "povm": ({"sigma": "2,1 x 2,1", "dim": 4, "ranks": {"(3)": 1, "(2,1)": 2}, "completeness_residual": 1e-16},
             {"sigma": "2,1 x 2,1", "dim": 4, "ranks": {"(3)": 1, "(2,1)": 2}},
             _set(["ranks", "(2,1)"], 3)),
    "projector": ({"rows": 6, "cols": 6, "data": _pairs(P), "lambda": "2,1", "rank": 3},
                  {"lambda": "2,1", "rank": 3, "dim": 6},
                  _set(["data", 7], lambda z: [z[0] + 1e-6, z[1]])),
    "exact": ({"m": 4, "routes_agree": True}, {"m": 4, "routes_agree": True}, _set(["m"], 5)),
    "isotypic-state": ({"state": {"registers": [6, 6], "amplitudes": _pairs(M)}, "normalization": 810.0},
                       {"dim": 6, "rank": 3, "normalization": 810.0},
                       _set(["state", "amplitudes", 0], lambda z: [-z[0], z[1]])),
    "unitary": ({"rows": 5, "cols": 5, "data": _pairs(F)}, {"dim": 5},
                _set(["data", 0], lambda z: [z[0] * 1.001, z[1]])),
    "error": ({"error": "too big", "status": "resource-limit"}, {"status": "resource-limit"},
              _set(["status"], "invalid-argument")),
    "measure": ({"label": "3,2", "post_state": {"registers": [2], "amplitudes": [[0.6, 0.0], [0.0, 0.8]]}},
                {"dim": 2, "support": ["4,1", "3,2"]},
                _set(["post_state", "amplitudes", 1], [0.0, 0.81])),
    "spectrum": ({"spectrum": [1.0, 0.5 + 1e-15, 0.5, 0.0], "c": 1.0, "s": 0.5, "eigenvalue_one_multiplicity": 1},
                 {"levels": [1, 2, 1]},
                 _set(["spectrum", 2], 0.49)),
    "certify": ({"trials": 4, "seed": 9, "violations": 0, "corollary_reports": _reports(4, 3.0, 0.0),
                 "theorem_reports": _reports(4, 2.0, 0.5)},
                {"trials": 4, "seed": 9},
                _set(["theorem_reports", 2, "distance_to_target"], 10.0)),
    "certify-lemma": ({"trials": 3, "seed": 9, "violations": 0, "reports": _reports(3, 2.0, 0.5)},
                      {"trials": 3, "seed": 9},
                      _set(["reports", 0, "acceptance_probability"], 0.4)),
    "verify-run": ({"accepted": True, "measured": "3,1,1", "stage": "internal-state-test",
                    "internal_acceptance_probability": 0.75},
                   {"lambda": "3,1,1", "support": ["3,2", "3,1,1"]},
                   _set(["measured"], "5")),
    "lightning": ({"(3)": 0.25, "(2,1)": 0.5, "(1,1,1)": 0.25},
                  {"distribution": {"(3)": 0.25, "(2,1)": 0.5, "(1,1,1)": 0.25}},
                  _set(["(2,1)"], 0.5 + 1e-6)),
}


def test_every_check_has_a_case():
    assert set(CASES) == set(CHECKS)


@pytest.mark.parametrize("kind", sorted(CASES))
def test_checker_accepts_good_and_rejects_corrupted_output(kind):
    good, expect, corrupt = CASES[kind]
    check_output(kind, json.dumps(good).encode(), expect, TOL)
    bad = copy.deepcopy(good)
    corrupt(bad)
    with pytest.raises(Mismatch):
        check_output(kind, json.dumps(bad).encode(), expect, TOL)
    with pytest.raises(Mismatch):
        check_output(kind, (json.dumps(good) + json.dumps(good)).encode(), expect, TOL)


def test_timeout_is_a_failed_command_not_a_crash(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    out = run.run_child(["lightning", "5,3,1", "4,3,2"], env, 0.5, None)
    assert out.failure and out.failure.startswith("timed out")
    assert out.returncode < 0


def test_fails_without_a_result_when_the_source_is_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "groupsum-n6", "--seed", "1",
         "--seconds", "5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
