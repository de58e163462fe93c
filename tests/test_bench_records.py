"""The committed bench records, BENCH_<pr>.json, as tools/bench_pairs.py
writes them: a speed claim counts only if one of them shows it."""

import json
import shutil
import statistics
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BOUNDS = {m["name"]: m["bound"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
KEYS = {"parent", "change", "seed", "seconds", "pairs", "workloads", "host", "runs", "summary"}
HOST_KEYS = {"nproc", "python", "numpy", "child_env"}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _names_a_commit(sha: str) -> bool:
    proc = subprocess.run(["git", "-C", str(ROOT), "cat-file", "-e", f"{sha}^{{commit}}"],
                          capture_output=True)
    return proc.returncode == 0


def _verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The verdict on one metric's paired runs: "better" when the change wins
    at least 9 pairs in 10 (ties for neither side) and its median beats the
    parent's by more than the parent's quartile spread, "worse" when its
    median is worse by more than bound times the parent's, else "unresolved"."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    q1, median, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    gain = sign * (median - statistics.median(change))
    if 10 * wins >= 9 * len(parent) and gain > q3 - q1:
        return "better"
    return "worse" if -gain > bound * abs(median) else "unresolved"


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_record_holds_every_run_and_names_its_parent(path):
    doc = json.loads(path.read_text())
    assert doc.keys() == KEYS
    assert doc["host"].keys() == HOST_KEYS
    pairs, workloads = doc["pairs"], doc["workloads"]
    runs = {(r["pair"], r["workload"], r["side"]): r for r in doc["runs"]}
    assert len(runs) == len(doc["runs"]) == 2 * pairs * len(workloads)
    for pair in range(pairs):
        for workload in workloads:
            sides = [runs[pair, workload, side] for side in ("parent", "change")]
            assert [r["first"] for r in sides] == [pair % 2 == 0, pair % 2 == 1]
            assert all(r["result"].keys() == RESULT_KEYS for r in sides)
    # The summary is the runs' own: each side's median for every workload and metric.
    names = {key.split("/")[1] for key in doc["summary"]}
    assert doc["summary"].keys() == {f"{w}/{name}" for w in workloads for name in names}
    for key, entry in doc["summary"].items():
        workload, name = key.split("/")
        sides = {}
        for side in ("parent", "change"):
            sides[side] = [runs[pair, workload, side]["result"]["metrics"][name]["value"]
                           for pair in range(pairs)]
            assert entry[side]["median"] == pytest.approx(statistics.median(sides[side]), rel=1e-12)
        assert entry["change_wins"] + entry["parent_wins"] <= pairs
        assert entry["bound"] == BOUNDS[name]
        assert entry["verdict"] == _verdict(sides["parent"], sides["change"], entry["better"],
                                            entry["bound"]), key
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    if subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--git-dir"],
                      capture_output=True).returncode:
        pytest.skip("not a git checkout")
    assert _names_a_commit(doc["parent"]), doc["parent"]
    # Every workload the parent's bench declares was run.
    show = ["git", "-C", str(ROOT), "show", f"{doc['parent']}:clibench/workloads.json"]
    declared = subprocess.run(show, capture_output=True, text=True, check=True).stdout
    assert workloads == list(json.loads(declared)["workloads"])
