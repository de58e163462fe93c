"""Cold-CLI benchmark of snverify.

    python3 clibench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
./src).  NAME is one of the workloads in clibench/workloads.json, or
"all" to interleave every workload and print each one's metrics.

Every command of a workload runs in its own fresh child process, so each
pays cold caches exactly as a CLI user does.  Commands run one at a time,
in passes over the workload, for S seconds: the first pass is whole, and
later a command starts only if it still fits.  Wall and CPU times are the
sum over commands of each command's median over passes.  Each untraced
pass also starts a few children that only import, for more samples of
set-up time.  Each command's exit code and stdout are checked (checks.py).
Inputs (Haar state files and every --seed passed to the program) are drawn
from N.

Every time reported is in reference-speed seconds: the measured time
times calibration_ref_s / calibrate(), where calibrate() times a fixed
kernel in this process before every child.  Set-up uses the sample just
before the child; wall, CPU and self times use the mean of the run's
samples.  On a shared host the speed of a CPU drifts by tens of percent
within minutes and this cancels most of it; the unscaled medians and the
factor are printed in the table.

--trace 0 reports the end-to-end metrics from untraced passes.  --trace 1
alternates whole untraced and traced passes and reports the per-layer
metrics:
span self times and counts from the traced passes (spans.py), plus the
tracing overhead against the untraced ones.  A traced command whose stdout
differs from its untraced run, or whose counts differ between traced
passes, counts as failed.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable table.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 170.0  # no command may start or run past this point of a run

COUNT_SUFFIXES = (".calls", ".distinct", ".terms", ".bytes", ".output_bytes")
COUNTERS = ("yyrep.kahan_sum.terms", "yyrep.kahan_sum.bytes", "yyrep.rep_evaluate.distinct",
            "verifier.commutant_projector.bytes")  # kept by spans.Tracer
# A trivial command run only for more samples of set-up time.
SETUP_PROBE = {"argv": ["sym", "dim", "1"], "exit": 0, "check": "exact", "expect": {"d": 1}}


def load_config() -> dict:
    return json.loads((HERE / "workloads.json").read_text())


@dataclass
class Outcome:
    """One command execution, measured from outside the child."""

    setup_s: float | None  # spawn until snverify.cli imported
    import_s: float | None  # the import alone, timed in the child
    wall_s: float  # import done until exited with stdout read
    cpu_s: float  # after import done, user + system
    rss_mb: float
    returncode: int
    stdout: bytes
    stderr: bytes
    failure: str | None = None
    trace: dict | None = None
    factor: float = 1.0  # host speed factor from the calibration just before


def _drain(proc, fds: dict[int, list[bytes]], deadline: float) -> bool:
    """Read every fd to EOF; kill the child at the deadline.  Returns
    whether it was killed."""
    killed = False
    with selectors.DefaultSelector() as sel:
        for fd in fds:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            left = deadline - time.monotonic()
            if left <= 0 and not killed:
                proc.kill()
                killed = True
            for key, _ in sel.select(timeout=None if killed else left):
                chunk = os.read(key.fd, 1 << 20)
                if chunk:
                    fds[key.fd].append(chunk)
                else:
                    sel.unregister(key.fd)
    return killed


def run_child(argv: list[str], env: dict, timeout: float, trace_file: str | None) -> Outcome:
    """Run one snverify command in a fresh process.  CPU time and peak RSS
    are this child's own, from os.wait4 (RUSAGE_CHILDREN would be a running
    maximum over every child reaped so far)."""
    ready_r, ready_w = os.pipe()
    spawn = time.monotonic()
    try:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(ready_w), trace_file or "-", *argv],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env, cwd=ROOT, pass_fds=(ready_w,),
        )
    except OSError:
        os.close(ready_r)
        raise
    finally:
        os.close(ready_w)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    fds: dict[int, list[bytes]] = {out_fd: [], err_fd: [], ready_r: []}
    try:
        killed = _drain(proc, fds, spawn + timeout)
    except BaseException:
        proc.kill()
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        os.close(ready_r)

    stamps = b"".join(fds[ready_r]).split()
    setup_s = import_s = None
    start, setup_cpu = spawn, 0.0
    if len(stamps) == 3:
        child_start, imported, setup_cpu = (float(s) for s in stamps)
        setup_s, import_s, start = imported - spawn, imported - child_start, imported
    out = Outcome(
        setup_s=setup_s, import_s=import_s, wall_s=end - start,
        cpu_s=usage.ru_utime + usage.ru_stime - setup_cpu, rss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode, stdout=b"".join(fds[out_fd]), stderr=b"".join(fds[err_fd]),
    )
    if killed:
        out.failure = f"timed out after {timeout:.1f} s"
    elif proc.returncode < 0:
        out.failure = f"killed by signal {-proc.returncode}"
    elif setup_s is None:
        out.failure = "child did not report its import"
    return out


def make_inputs(cfg: dict, seed: int, workdir: Path) -> list[dict]:
    """Draw the state files and per-command seeds from the run seed.  Every
    workload's seeds are drawn, in file order, so a command sees the same
    inputs whichever workload is selected."""
    import numpy as np

    rng = np.random.default_rng(seed)
    files = {}
    for placeholder, dim in (("{state400}", 400), ("{state900}", 900)):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        side = int(round(dim ** 0.5))
        path = workdir / f"state{dim}.json"
        doc = {"registers": [side, side], "amplitudes": [[z.real, z.imag] for z in v.tolist()]}
        path.write_text(json.dumps(doc))
        files[placeholder] = str(path)
    commands = []
    for workload, spec in cfg["workloads"].items():
        for cmd in spec["commands"]:
            argv, expect = [], dict(cmd["expect"])
            for token in cmd["argv"]:
                if token == "{seed}":
                    expect["seed"] = int(rng.integers(2**31 - 1))
                    token = str(expect["seed"])
                argv.append(files.get(token, token))
            commands.append({"workload": workload, "argv": argv, "exit": cmd["exit"],
                             "check": cmd["check"], "expect": expect})
    return commands


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter work and small complex
    matrix products, like the program's own.  On a shared host the speed of
    a CPU drifts by tens of percent within minutes; times are scaled by
    calibration_ref_s / calibrate() so that drift cancels (workloads.json)."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    b = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    a /= np.linalg.norm(a, 2)
    b /= np.linalg.norm(b, 2)
    start = time.perf_counter()
    table: dict = {}
    for i in range(60000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
    m = np.eye(64, dtype=complex)
    for _ in range(300):
        m = m @ a
    for _ in range(4):
        b @ b
    return time.perf_counter() - start


@dataclass
class Pass:
    """One pass over a workload's commands, None where a command was not
    started (no time left for it), plus the pass's set-up probes."""

    outcomes: list[Outcome | None]
    probes: list[Outcome]

    def ran(self) -> list[Outcome]:
        return [o for o in self.outcomes if o is not None]


class Run:
    """The passes of one benchmark run over one workload, and their checks.

    calibrate() runs before every child, so each child's set-up is scaled
    by the sample just before it, and wall and CPU times by the mean of
    all the run's samples (a single sample is noisy; their mean follows
    the drift)."""

    def __init__(self, cfg: dict, commands: list[dict], workdir: Path, deadline: float):
        from checks import Tolerance

        self.cfg = cfg
        self.commands = commands
        self.workdir = workdir
        self.deadline = deadline
        self.tol = Tolerance(atol=cfg["float_atol"], bound_slack=cfg["bound_slack"])
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.untraced: list[Pass] = []
        self.traced: list[Pass] = []
        self.samples: list[float] = []
        self.took: dict[int | None, float] = {}  # longest time per command, checks included
        self.attempted = 0
        self.failures: list[str] = []
        self.untraced_stdout: dict[int, bytes] = {}
        self.first_counts: dict[int, dict] = {}

    @property
    def factor(self) -> float:
        return self.cfg["calibration_ref_s"] / statistics.fmean(self.samples)

    def run_pass(self, traced: bool, stop_at: float | None = None) -> bool:
        """Run every command once, each in a fresh child, after the set-up
        probes when untraced.  With stop_at, a command that took longer than
        the time left on an earlier pass is not started.  Returns whether
        any command ran."""
        self.samples.append(calibrate())
        probes = []
        if not traced:
            for _ in range(self.cfg["setup_probes"]):
                probes.append(self._execute(SETUP_PROBE, None, False, stop_at))
        outcomes = [self._execute(cmd, k, traced, stop_at) for k, cmd in enumerate(self.commands)]
        done = Pass(outcomes, [o for o in probes if o])
        if done.ran():
            (self.traced if traced else self.untraced).append(done)
        return bool(done.ran())

    def _execute(self, cmd: dict, k: int | None, traced: bool, stop_at: float | None) -> Outcome | None:
        from checks import Mismatch, check_output

        start = time.monotonic()
        if stop_at is not None and k in self.took and start + self.took[k] > stop_at:
            return None
        self.attempted += 1
        left = self.deadline - start
        if left <= 1.0:
            self._fail(cmd, "run time limit reached before the command started")
            return None
        trace_file = str(self.workdir / f"trace{k}.json") if traced else None
        out = run_child(cmd["argv"], self.env, min(self.cfg["command_timeout_s"], left), trace_file)
        out.factor = self.cfg["calibration_ref_s"] / self.samples[-1]
        self.samples.append(calibrate())
        if out.failure is None and out.returncode != cmd["exit"]:
            tail = out.stderr.decode(errors="replace").strip().splitlines()[-1:]
            out.failure = f"exit {out.returncode}, expected {cmd['exit']} {tail}"
        if out.failure is None:
            try:
                check_output(cmd["check"], out.stdout, cmd["expect"], self.tol)
            except Mismatch as exc:
                out.failure = f"output check: {exc}"
        if out.failure is None and traced:
            out.failure = self._compare_traced(k, out, trace_file)
        elif out.failure is None and k is not None:
            self.untraced_stdout.setdefault(k, out.stdout)
        if out.failure is not None:
            self._fail(cmd, out.failure)
        self.took[k] = max(self.took.get(k, 0.0), time.monotonic() - start)
        return out

    def _fail(self, cmd: dict, reason: str) -> None:
        self.failures.append(f"{' '.join(cmd['argv'])}: {reason}")

    def _compare_traced(self, k: int, out: Outcome, trace_file: str) -> str | None:
        """Stdout must not change under tracing, and counts must repeat."""
        try:
            with open(trace_file) as fh:
                out.trace = json.load(fh)
        except (OSError, ValueError) as exc:
            return f"no trace summary: {exc}"
        if k in self.untraced_stdout and out.stdout != self.untraced_stdout[k]:
            return "stdout differs with tracing on"
        counts = {"calls": out.trace["calls"], "counts": out.trace["counts"]}
        if self.first_counts.setdefault(k, counts) != counts:
            return "trace counts differ between traced passes"
        return None


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else float("nan")


def _per_command_median(passes: list[Pass], attr: str) -> float:
    """Sum over commands of the command's median over passes; a slow
    moment of one command moves it less than a median of pass sums."""
    return sum(_median(getattr(p.outcomes[k], attr) for p in passes if p.outcomes[k])
               for k in range(len(passes[0].outcomes)))


def end_to_end(run: Run) -> dict:
    children = [o for p in run.untraced for o in p.probes + p.ran()]
    return {
        "setup_s": _median(o.setup_s * o.factor for o in children if o.setup_s is not None),
        "wall_s": _per_command_median(run.untraced, "wall_s") * run.factor,
        "cpu_s": _per_command_median(run.untraced, "cpu_s") * run.factor,
        "peak_rss_mb": max((o.rss_mb for o in children), default=float("nan")),
        "ok_share": 1.0 - len(run.failures) / run.attempted,
    }


def per_layer(names: list[str], run: Run) -> dict:
    """Per-layer metrics from the traced passes.  Times are medians over
    traced passes, in reference-speed seconds; counts come from one pass
    (they repeat exactly).  A name the program no longer has reads as 0."""

    def pass_value(p: Pass, name: str) -> float:
        traces = [o.trace for o in p.ran() if o.trace]
        if name == "cli.output_bytes":
            return sum(len(o.stdout) for o in p.ran())
        if name == "trace.coverage":
            main = sum(t["main_s"] for t in traces)
            return sum(t["covered_s"] for t in traces) / main if main else 0.0
        if name in COUNTERS:
            return sum(t["counts"].get(name, 0) for t in traces)
        layer, _, stat = name.rpartition(".")
        total = 0
        for t in traces:
            for span, value in t[stat].items():
                if span == layer or ("." not in layer and span.startswith(layer + ".")):
                    total += value
        return total * run.factor if stat == "self_s" else total

    out = {}
    for name in names:
        if name == "cli.import_s":
            out[name] = _median(o.import_s * o.factor for p in run.untraced + run.traced
                                for o in p.probes + p.ran() if o.import_s is not None)
        elif name == "trace.overhead":
            out[name] = (_per_command_median(run.traced, "wall_s")
                         / _per_command_median(run.untraced, "wall_s") - 1.0)
        elif name.endswith(COUNT_SUFFIXES):
            out[name] = pass_value(run.traced[0], name)
        else:
            out[name] = _median(pass_value(p, name) for p in run.traced)
    return out


def main(argv: list[str] | None = None) -> int:
    cfg = load_config()
    names = list(cfg["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=cfg["default_seed"])
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "snverify" / "cli.py").is_file():
        print(f"error: no snverify source under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread here and in every child: with more, OpenBLAS spins
    # and CPU time no longer tracks wall time on a small host.
    os.environ.update(cfg["child_env"])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}

    started = time.monotonic()
    stop_at = started + args.seconds
    selected = names if args.workload == "all" else [args.workload]
    with tempfile.TemporaryDirectory(prefix=".clibench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        commands = make_inputs(cfg, args.seed, workdir)
        runs = {w: Run(cfg, [c for c in commands if c["workload"] == w], workdir,
                       started + RUN_LIMIT_S) for w in selected}
        run_child(SETUP_PROBE["argv"], runs[selected[0]].env, 60, None)  # byte-compiles, untimed
        # A round is one pass of every selected workload.  Untraced, rounds
        # go on while any command still fits, so the last may be partial.
        # Traced, whole rounds alternate untraced and traced, and a round
        # starts only if the longest round of its kind so far still fits.
        longest = {False: 0.0, True: 0.0}
        while time.monotonic() < started + RUN_LIMIT_S:
            r = runs[selected[0]]
            kind = bool(args.trace) and len(r.traced) < len(r.untraced)
            t0 = time.monotonic()
            ran = [runs[w].run_pass(kind, None if args.trace else stop_at) for w in selected]
            longest[kind] = max(longest[kind], time.monotonic() - t0)
            if not args.trace and not any(ran):
                break
            next_kind = len(r.traced) < len(r.untraced)
            if args.trace and r.traced and time.monotonic() + longest[next_kind] > stop_at:
                break

    metrics = {}
    attempted = failed = 0
    for w in selected:
        run = runs[w]
        attempted += run.attempted
        failed += len(run.failures)
        values = per_layer(list(units), run) if args.trace else end_to_end(run)
        prefix = "" if args.workload != "all" else w + "/"
        for name, value in values.items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
        for reason in run.failures:
            print(f"FAILED [{w}] {reason}")
        children = [o for p in run.untraced for o in p.probes + p.ran()]
        print(f"[{w}] passes: {len(run.untraced)} untraced, {len(run.traced)} traced; "
              f"commands attempted {run.attempted}, failed {len(run.failures)}; "
              f"host factor {run.factor:.4f}; unscaled medians: "
              f"wall {_per_command_median(run.untraced, 'wall_s'):.4f} s, "
              f"setup {_median(o.setup_s for o in children):.4f} s")
    for name, m in metrics.items():
        print(f"{name:60s} {m['value']:>16.6g} {m['unit']}")
    print(f"env: {json.dumps(cfg['child_env'])} python {sys.version.split()[0]} "
          f"seed {args.seed} elapsed {time.monotonic() - started:.1f} s")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
