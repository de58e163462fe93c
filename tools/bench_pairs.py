"""Paired runs of the cold-CLI bench on a parent commit and a change.

    python3 tools/bench_pairs.py --parent REV --change REV --pairs N \
        --seed S --seconds T --out BENCH_<pr>.json

Run from inside the git repository.  Each commit is exported with
`git archive` into its own temporary directory (under $TMPDIR), and
clibench/run.py runs there from that commit's own files, so each side
imports the program from its own source, as the bench does.  Pair i runs
every workload of the change's clibench/workloads.json on both sides,
the parent first when i is even and the change first when i is odd.  The
bench is not changed: each run's result is the last line of its stdout,
one JSON document.

The output holds every run's result, both SHAs, the seed and --seconds,
the host (nproc, Python and NumPy versions, the bench's child_env) and,
per workload and end-to-end metric, each side's median and quartiles and
the number of pairs the change won (ties count for neither side).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def git(*args: str) -> str:
    return subprocess.run(["git", *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def export(sha: str, dest: Path) -> None:
    """Write the files of commit sha into dest."""
    archive = subprocess.Popen(["git", "archive", sha], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {sha} failed")


def bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run of the checkout's own clibench/run.py: its last stdout line."""
    cmd = [sys.executable, "clibench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], workloads: list[str], better: dict[str, str]) -> dict:
    """Per "workload/metric": each side's median and quartiles over the
    pairs, and the pairs the change won."""
    summary = {}
    for workload in workloads:
        by_side = {side: [r["result"]["metrics"] for r in runs
                          if r["workload"] == workload and r["side"] == side]
                   for side in ("parent", "change")}
        for name, direction in better.items():
            parent = [m[name]["value"] for m in by_side["parent"]]
            change = [m[name]["value"] for m in by_side["change"]]
            sign = 1 if direction == "lower" else -1
            summary[f"{workload}/{name}"] = {
                "better": direction,
                "parent": quartiles(parent),
                "change": quartiles(change),
                "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
                "parent_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            }
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    shas = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}")
            for side, rev in (("parent", args.parent), ("change", args.change))}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        checkouts = {side: Path(tmp) / side for side in shas}
        for side, path in checkouts.items():
            path.mkdir()
            export(shas[side], path)
        config = json.loads((checkouts["change"] / "clibench" / "workloads.json").read_text())
        declared = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
        workloads = list(config["workloads"])
        runs = []
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    result = bench(checkouts[side], workload, args.seed, args.seconds)
                    runs.append({"pair": pair, "workload": workload, "side": side,
                                 "first": side == order[0], "result": result})
                    wall = result["metrics"]["wall_s"]["value"]
                    print(f"pair {pair} {workload} {side}: wall_s {wall:.4f}", file=sys.stderr)
    numpy_version = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                                   capture_output=True, text=True, check=True).stdout.strip()
    doc = {
        "parent": shas["parent"], "change": shas["change"], "seed": args.seed,
        "seconds": args.seconds, "pairs": args.pairs, "workloads": workloads,
        "host": {"nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
                 "numpy": numpy_version, "child_env": config["child_env"]},
        "runs": runs,
        "summary": summarize(runs, workloads,
                             {m["name"]: m["better"] for m in declared["end_to_end"]}),
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
