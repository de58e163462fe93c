"""Command-line front door.

Every subcommand prints a single JSON document on stdout; exit codes are
0 (ok), 2 (invalid argument), 3 (resource limit), 4 (numerical
consistency), and 141, with nothing on stderr, when the reader closes
stdout before the document is written.  All stochastic subcommands take
--seed and are fully determined by it; timing and progress go to stderr
only.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from dataclasses import dataclass

from . import serialize
from .characters import irrep_character, lightning_distribution
from .entangled import StateVector, max_entangled_over_range, phi_plus, psi_lambda
from .errors import InvalidArgumentError, SnverifyError, require_bytes
from .selftest import run_selftest
from .symgroup import (
    Partition,
    Permutation,
    conjugacy_class_of,
    enumerate_partitions,
    enumerate_tableaux,
    irrep_dimension,
)
from .verifier import (
    certify_corollary_bound,
    certify_lemma_bound,
    run_verifier_sampled,
    verification_acceptance_operator,
)
from .wfs import kronecker_coefficient, measure_wfs, povm_ranks, wfs_projector
from .yyrep import fourier_transform_matrix, irrep, rep_evaluate, tensor_rep


@dataclass
class CommandResult:
    exit_code: int
    payload: dict


def _load_state(path: str):
    try:
        size = os.path.getsize(path)  # priced before json.load parses it
        require_bytes(serialize.STATE_FILE_FACTOR * size, f"the state file {path!r} of {size} B")
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InvalidArgumentError(f"cannot read state file {path!r}: {exc}") from None
    return serialize.state_from_json(doc).amplitudes


def _cmd_sym(args) -> dict:
    if args.action == "partitions":
        shapes = enumerate_partitions(args.n)
        return {"n": args.n, "count": len(shapes), "partitions": [str(s) for s in shapes]}
    shape = Partition.parse(args.shape)
    if args.action == "dim":
        return {"d": irrep_dimension(shape)}
    tableaux = enumerate_tableaux(shape)
    return {
        "shape": str(shape),
        "count": len(tableaux),
        "tableaux": [[list(row) for row in t.rows] for t in tableaux],
    }


def _cmd_rep(args) -> dict:
    if args.action == "ft":
        # The partitions validate n and bound it before n! is taken.  The JSON
        # price charges 16 B an entry for the array a holder is copied from:
        # here the float transform and the irrep stacks it is read from, both
        # cached, so one check before either is built covers the whole run.
        enumerate_partitions(args.n)
        size = math.factorial(args.n)
        serialize.require_json(size * size, f"the {size} x {size} Fourier transform of S_{args.n}")
        return serialize.matrix_to_json(fourier_transform_matrix(args.n))
    shape = Partition.parse(args.shape)
    g = Permutation.parse(args.perm)
    if args.action == "matrix":
        return serialize.matrix_to_json(rep_evaluate(irrep(shape), g))
    return {"chi": [irrep_character(shape, conjugacy_class_of(g)), 0.0]}


def _cmd_wfs(args) -> dict:
    mu, nu = Partition.parse(args.mu), Partition.parse(args.nu)
    sigma = tensor_rep(mu, nu)
    if args.action == "project":
        lam = Partition.parse(args.shape)
        serialize.require_json(sigma.dim**2, f"{sigma.dim**2} complex entries")
        return serialize.projector_to_json(wfs_projector(sigma, lam), lam)
    if args.action == "povm":
        ranks, residual = povm_ranks(sigma)
        return {
            "sigma": f"{mu} x {nu}",
            "dim": sigma.dim,
            "ranks": {f"({lam})": rank for lam, rank in ranks.items()},
            "completeness_residual": residual,
        }
    # measure, on C^D or on the first register of C^D x C^D
    psi = _load_state(args.state) if args.state else phi_plus(sigma.dim).amplitudes
    if psi.shape not in ((sigma.dim,), (sigma.dim**2,)):
        raise InvalidArgumentError(
            f"state has dimension {psi.shape}, not D = {sigma.dim} or D^2 = {sigma.dim**2}")
    label, post = measure_wfs(sigma, psi, args.seed)
    return {
        "label": str(label),
        "post_state": serialize.state_to_json(
            StateVector(registers=(len(post),), amplitudes=post)
        ),
    }


def _cmd_kron(args) -> dict:
    mu, nu, lam = (Partition.parse(t) for t in (args.mu, args.nu, args.shape))
    result = kronecker_coefficient(mu, nu, lam, route=args.route)
    if args.route == "both":
        return {"m": result.value, "routes_agree": True}
    return {"m": result.value, "route": result.route}


def _cmd_lightning(args) -> dict:
    mu, nu = Partition.parse(args.mu), Partition.parse(args.nu)
    dist = lightning_distribution(mu, nu)
    return {f"({lam})": prob for lam, prob in dist.items()}


def _cmd_state(args) -> dict:
    if args.action == "phi-plus":
        return serialize.state_to_json(phi_plus(args.d))
    mu, nu, lam = (Partition.parse(t) for t in (args.mu, args.nu, args.shape))
    sigma = tensor_rep(mu, nu)
    serialize.require_json(sigma.dim**2, f"{sigma.dim**2} complex entries")
    if args.action == "phi-pi":
        return serialize.state_to_json(max_entangled_over_range(wfs_projector(sigma, lam)))
    # psi-lambda
    phi = _load_state(args.state) if args.state else phi_plus(sigma.dim).amplitudes
    state, normalization = psi_lambda(sigma, lam, phi)
    return {
        "state": serialize.state_to_json(state),
        "normalization": normalization,
    }


def _reports_doc(args, **named_reports) -> dict:
    """A certification document: the trials, the seed, the violated bounds,
    each named list of reports as dicts of their fields, in field order and
    not deep-copied, and the worst bound - distance over them all (None when
    there are none)."""
    reports = [r for group in named_reports.values() for r in group]
    return {
        "trials": args.trials,
        "seed": args.seed,
        "violations": sum(not r.bound_satisfied for r in reports),
        **{name: [dict(vars(r)) for r in group] for name, group in named_reports.items()},
        "min_slack": min((r.bound - r.distance_to_target for r in reports), default=None),
    }


def _cmd_verify(args) -> dict:
    mu, nu, lam = (Partition.parse(t) for t in (args.mu, args.nu, args.shape))
    if args.action == "spectrum":
        # The JSON of the D^2 eigenvalues, three shared floats, by tracemalloc
        # from D = 30 to 1,568: json.dumps holds the list, its text and a copy,
        # 18-26 B an entry, and the C encoder's pieces, 64 B more for the first
        # 50,000 entries (it joins every 100,000, two an entry); --pretty, 84-103 B.
        entries = tensor_rep(mu, nu).dim ** 2
        nbytes = 112 * entries if args.pretty else 26 * entries + 64 * min(entries, 50_000)
        require_bytes(nbytes, f"the JSON of {entries} eigenvalues")
        op = verification_acceptance_operator(mu, nu, lam)
        (one, ones), (half, halves), (zero, zeros) = op.levels
        return {
            "spectrum": [one] * ones + [half] * halves + [zero] * zeros,
            "c": op.c,
            "s": op.s,
            "eigenvalue_one_multiplicity": ones,
        }
    if args.action == "certify":
        trials = certify_corollary_bound(
            mu, nu, lam, args.trials, args.seed, perturbation=args.perturbation
        )
        return {
            **_reports_doc(args, corollary_reports=[t.corollary for t in trials],
                           theorem_reports=[t.theorem for t in trials]),
            "degenerate_trials": sum(t.degenerate for t in trials),
        }
    # run
    psi = _load_state(args.state)
    return run_verifier_sampled(mu, nu, lam, psi, args.seed)


def _cmd_certify_lemma(args) -> dict:
    reports = certify_lemma_bound(Partition.parse(args.shape), args.multiplicity, args.trials,
                                  args.seed, perturbation=args.perturbation)
    return _reports_doc(args, reports=reports)


def _cmd_selftest(args) -> dict:
    report, timings = run_selftest(n_max=args.n_max, trials=args.trials, seed=args.seed)
    for name, seconds in timings.items():
        print(f"{name}: {seconds:.3f}s", file=sys.stderr)
    return report


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InvalidArgumentError, so they leave as one JSON
    document with exit 2 like any other invalid argument.  Subparsers
    inherit the class."""

    def error(self, message):
        raise InvalidArgumentError(f"{self.prog}: {message}")


_SEED = ("--seed", {"type": int, "default": 0})
_TRIALS = ("--trials", {"type": int, "default": 100})
_PERTURBATION = ("--perturbation", {"type": float})
_TRIPLE = ["mu", "nu", "shape"]

# command -> (handler, help, arguments), or (handler, help, {action:
# arguments}) for a command with actions; an argument is a name or a (name,
# add_argument keywords) pair.
_COMMANDS = {
    "sym": (_cmd_sym, "partitions, dimensions, tableaux", {
        "partitions": [("n", {"type": int})],
        "dim": ["shape"],
        "tableaux": ["shape"],
    }),
    "rep": (_cmd_rep, "irrep matrices, characters, Fourier transform", {
        "matrix": ["shape", "perm"],
        "char": ["shape", "perm"],
        "ft": [("n", {"type": int})],
    }),
    "wfs": (_cmd_wfs, "weak Fourier sampling", {
        "project": _TRIPLE,
        "povm": ["mu", "nu"],
        "measure": ["mu", "nu", ("--state", {
            "help": "state JSON file; defaults to the maximally entangled state"}), _SEED],
    }),
    "kron": (_cmd_kron, "Kronecker coefficients", [
        *_TRIPLE, ("--route", {"choices": ["char", "rank", "both"], "default": "both"})]),
    "lightning": (_cmd_lightning, "irrep sampling distribution", ["mu", "nu"]),
    "state": (_cmd_state, "entangled state constructions", {
        "phi-plus": [("d", {"type": int})],
        "phi-pi": _TRIPLE,
        "psi-lambda": [*_TRIPLE, ("--state", {"help": "input state JSON file"})],
    }),
    "verify": (_cmd_verify, "verification algorithm", {
        "spectrum": _TRIPLE,
        "certify": [*_TRIPLE, _TRIALS, _SEED, _PERTURBATION],
        "run": [*_TRIPLE, ("--state", {"required": True}), _SEED],
    }),
    "certify-lemma": (_cmd_certify_lemma, "internal-test bound for identity-times-irrep", [
        "shape", ("--multiplicity", {"type": int, "default": 1}), _TRIALS, _SEED, _PERTURBATION]),
    "selftest": (_cmd_selftest, "run every invariant suite", [
        ("--n-max", {"type": int, "default": 5}), _TRIALS, _SEED]),
}


def _add_arguments(parser: argparse.ArgumentParser, arguments) -> None:
    for arg in arguments:
        name, keywords = (arg, {}) if isinstance(arg, str) else arg
        parser.add_argument(name, **keywords)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser.  For a command of _COMMANDS only its own subparser
    is built; otherwise (help, an unknown command, none) the whole table,
    which the usage and choice texts list."""
    parser = _Parser(
        prog="snverify",
        description="Symmetric-group representation and verification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    table = {command: _COMMANDS[command]} if command in _COMMANDS else _COMMANDS
    for name, (_, help_text, arguments) in table.items():
        p = sub.add_parser(name, help=help_text)
        if isinstance(arguments, dict):
            actions = p.add_subparsers(dest="action", required=True)
            for action, action_arguments in arguments.items():
                _add_arguments(actions.add_parser(action), action_arguments)
        else:
            _add_arguments(p, arguments)
    return parser


_STATUS_BY_CODE = {2: "invalid-argument", 3: "resource-limit", 4: "numerical-consistency"}
CLOSED_STDOUT_EXIT = 141  # 128 + SIGPIPE, as a shell reports a writer killed by a closed pipe


def run(argv: list[str], pretty: bool = False) -> CommandResult:
    """Execute one CLI invocation; returns the result without printing.
    With pretty, the payload's floats are rounded for --pretty but for its
    complex arrays' entries, which the writer rounds."""
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        args.pretty = pretty  # the handlers that build a long list price its writer
        require_bytes(0, "nothing")  # a malformed budget fails every command alike
        for name in ("trials", "seed"):
            if getattr(args, name, 0) < 0:
                raise InvalidArgumentError(f"--{name} must be nonnegative")
        if getattr(args, "n_max", 2) < 2:
            # Below S_2 every degree-indexed self-test suite would run no check.
            raise InvalidArgumentError(f"--n-max must be at least 2, got {args.n_max}")
        if not math.isfinite(getattr(args, "perturbation", None) or 0.0):
            raise InvalidArgumentError(f"--perturbation must be finite, got {args.perturbation}")
        payload = _COMMANDS[args.command][0](args)
        return CommandResult(exit_code=0, payload=_round_floats(payload) if pretty else payload)
    except (SnverifyError, MemoryError) as exc:
        # Running out of memory below the budget is a resource limit too.
        code = getattr(exc, "exit_code", 3)
        doc = {"error": str(exc) or "out of memory", "status": _STATUS_BY_CODE.get(code, "error")}
        return CommandResult(exit_code=code, payload=doc)


def _round_floats(obj):
    if isinstance(obj, float):
        return serialize.round_float(obj)
    if isinstance(obj, list):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    return obj


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    pretty = "--pretty" in argv
    if pretty:
        argv.remove("--pretty")
    # The import-time heap lives until exit: freezing it spares the run's
    # full collections, and those at interpreter exit, from walking it.
    # Only the first call in a process freezes: a later one would make the
    # cyclic garbage a caller left since then immortal.
    if not gc.get_freeze_count():
        gc.freeze()
    try:
        result = run(argv, pretty)
    except SystemExit:  # --help
        return 0
    try:
        serialize.write(result.payload, sys.stdout, pretty)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout; the flush at exit must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CLOSED_STDOUT_EXIT
    if result.exit_code:
        return result.exit_code
    if result.payload.get("all_passed") is False:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
