"""Command-line surface: generate trial data, train, audit, evaluate.

Exit codes are a contract: 0 success or pass, 1 flag misuse, 2 invalid
scenario or model files, an output file or a closed stdout that cannot
be written or a request too large to compute or hold, 3 an audit
violation or a failed guarantee.
All outputs are deterministic given flags and seeds.

Each command imports the modules it runs inside its handler, so that a
process pays only for its own command: scenario-show loads core alone,
and only train loads boost.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import json
import math
import os
import sys

from .core import EMPIRICAL, EXACT, MODES, load_scenario
from .errors import (
    ArgumentError,
    BoundExceededError,
    ConfigurationError,
    DataFormatError,
    LearnerContractError,
    ModelMismatchError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_FAIL = 3


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _epsilon(text: str) -> float:
    """argparse type for --epsilon: a positive finite number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {text!r}"
        )
    return value


def _at_least(lo: int):
    """argparse type: an integer of at least lo."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {text!r}")
        return value

    return parse


_nonnegative, _count = _at_least(0), _at_least(1)


@contextlib.contextmanager
def _output(path):
    """Writes path inside; an OSError there, such as a missing directory
    or no permission, becomes a ConfigurationError naming path (exit 2)."""
    try:
        yield
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _check_directory(path) -> None:
    """Refuse an output path whose directory is missing, not a directory
    or not writable, as _output refuses the write itself (exit 2), so
    that a command can refuse it before doing any work."""
    parent = os.path.dirname(path) or os.curdir
    with _output(path):
        os.stat(parent)  # raises for a missing directory
        if not os.path.isdir(parent):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
        if not os.access(parent, os.W_OK | os.X_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))


def _check_data_flags(args, *flags) -> None:
    """Refuse --data missing in an estimated mode, or --data or one of
    flags given in exact mode, which reads no trial data."""
    if args.mode != EXACT:
        if args.data is None:
            raise ArgumentError(f"--data is required in {args.mode} mode")
        return
    for flag in ("data", *flags):
        if getattr(args, flag) is not None:
            raise ArgumentError(f"--{flag.replace('_', '-')} is not used in exact mode")


def cmd_scenario_show(args) -> int:
    scenario = load_scenario(args.config)
    print(f"scenario: {scenario.name}")
    print(
        f"features ({len(scenario.features.points)}): "
        + ", ".join(scenario.features.points)
    )
    print(f"decisions ({scenario.k}): " + ", ".join(scenario.decisions.labels))
    print(
        f"losses ({len(scenario.losses)}): "
        + ", ".join(f"{l.name} (lmax={l.lmax:g})" for l in scenario.losses)
    )
    print(
        f"hypotheses ({len(scenario.hypotheses)}): "
        + ", ".join(h.name for h in scenario.hypotheses)
    )
    print(f"epsilon: {scenario.epsilon:g}")
    print(f"lmax: {scenario.lmax:g}")
    if scenario.weights is None:
        print("weights: none")
    else:
        names = ", ".join(w.name for w in scenario.weights.weights)
        print(
            f"weights ({len(scenario.weights.weights)}, "
            f"wmax={scenario.weights.wmax:g}): {names}"
        )
    return EXIT_OK


def cmd_rct_gen(args) -> int:
    from .rct import generate_rct, write_jsonl

    scenario = load_scenario(args.config)
    data = generate_rct(scenario, args.n, args.seed)
    with _output(args.out):
        write_jsonl(data, args.out)
    print(f"wrote {data.n} samples to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    from .boost import BoostConfig, poi_boost, write_trace
    from .predictor import save_model
    from .rct import read_jsonl

    _check_data_flags(args, "poi_n", "doi_n")
    trace_path = args.trace if args.trace is not None else args.out + ".trace.jsonl"
    if os.path.realpath(trace_path) == os.path.realpath(args.out):
        raise ArgumentError(f"--trace {args.trace} and --out {args.out} are the same file")
    for path in (args.out, trace_path):
        _check_directory(path)
    train_scenario = load_scenario(args.config)
    if args.adapt:
        from .adapt import augment_scenario

        train_scenario = augment_scenario(train_scenario)
    data = None
    poi_n = doi_n = None
    if args.data is not None:
        data = read_jsonl(args.data, train_scenario)
        if args.poi_n is None and data.n < 2:
            raise ConfigurationError(
                f"training data {args.data} has {data.n} sample"
                f"{'' if data.n == 1 else 's'}; {args.mode} training needs "
                "at least 2: a prefix for the rule audits and a fresh slice "
                "for each decision audit"
            )
        poi_n = args.poi_n if args.poi_n is not None else data.n // 2
        doi_n = (
            args.doi_n
            if args.doi_n is not None
            else max(1, (data.n - poi_n) // 64)
        )
    config = BoostConfig(
        epsilon=args.epsilon,
        mode=args.mode,
        data=data,
        poi_n=poi_n,
        doi_n=doi_n,
        adapt=args.adapt,
    )
    try:
        result = poi_boost(train_scenario, config)
    except BoundExceededError as exc:
        if exc.trace is not None:
            with _output(trace_path):
                write_trace(exc.trace, trace_path)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    with _output(trace_path):
        write_trace(result.trace, trace_path)
    if result.termination != "converged":
        print(
            f"training stopped without converging ({result.termination}) "
            f"after {result.trace.updates} updates",
            file=sys.stderr,
        )
        return EXIT_FAIL
    try:
        with _output(args.out):
            save_model(result.predictor, args.out)
    except ConfigurationError:
        # no trace is left behind without its model
        with contextlib.suppress(OSError):
            os.remove(trace_path)
        raise
    print(
        f"converged after {result.trace.updates} updates; "
        f"model written to {args.out}"
    )
    return EXIT_OK


def cmd_audit(args) -> int:
    from .adapt import load_model_with_scenario
    from .audit import (
        audit_doi_empirical,
        audit_doi_exact,
        audit_poi_csc,
        audit_poi_empirical,
        audit_poi_exact,
    )
    from .predictor import prediction_matrix
    from .rct import read_jsonl

    _check_data_flags(args)
    scenario = load_scenario(args.config)
    pred, audit_scenario = load_model_with_scenario(args.model, scenario)
    eps = args.epsilon if args.epsilon is not None else scenario.epsilon

    matrix = prediction_matrix(pred, audit_scenario)
    if args.mode == EXACT:
        _, poi_report = audit_poi_exact(matrix, audit_scenario, eps)
        _, doi_report = audit_doi_exact(matrix, audit_scenario, eps)
    else:
        data = read_jsonl(args.data, audit_scenario)
        if args.mode == EMPIRICAL:
            _, poi_report = audit_poi_empirical(matrix, data, data, audit_scenario, eps)
        else:
            _, poi_report = audit_poi_csc(matrix, data, audit_scenario, eps)
        _, doi_report = audit_doi_empirical(matrix, data, data, audit_scenario, eps)

    passed = poi_report.passed and doi_report.passed
    print(
        json.dumps(
            {
                "poi": poi_report.to_json_dict(),
                "doi": doi_report.to_json_dict(),
                "pass": passed,
            },
            indent=2,
        )
    )
    return EXIT_OK if passed else EXIT_FAIL


def _parse_mixture_flag(text: str):
    from .adapt import MixtureSpec

    components = []
    for part in text.split(","):
        if ":" not in part:
            raise ArgumentError(
                f"bad mixture component {part!r}; expected name:coefficient"
            )
        name, _, raw = part.rpartition(":")
        try:
            lam = float(raw)
        except ValueError:
            raise ArgumentError(f"bad mixture coefficient {raw!r} for {name!r}")
        components.append((name.strip(), lam))
    return MixtureSpec(components=tuple(components))


def cmd_eval(args) -> int:
    import csv

    from .adapt import (
        load_model_with_scenario,
        mixture_distribution,
        optimality,
        rule_terms,
        shift_distribution,
    )
    from .predictor import prediction_matrix

    scenario = load_scenario(args.config)
    pred, eval_scenario = load_model_with_scenario(args.model, scenario)
    mass = scenario.arrays.dist
    if args.shift is not None:
        if scenario.weights is None:
            raise ArgumentError(
                f"--shift {args.shift!r}: scenario has no weight class"
            )
        mass = shift_distribution(scenario, args.shift)
    elif args.mixture is not None:
        if scenario.weights is None:
            raise ArgumentError("--mixture: scenario has no weight class")
        mass = mixture_distribution(scenario, _parse_mixture_flag(args.mixture))

    names, terms = rule_terms(prediction_matrix(pred, eval_scenario), scenario)
    risks, _, _, passed = optimality(terms, scenario, mass, pred.fingerprint.epsilon)
    h = len(scenario.hypotheses)
    rows = []
    for r, name in enumerate(names):
        for j, loss in enumerate(scenario.losses):
            verdict = "" if r != h + j else "true" if passed[j] else "false"
            rows.append((name, loss.name, repr(risks[j][r]), verdict))

    with _output(args.out), open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["rule", "loss", "risk", "optimal_within_2eps"])
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_adapt_verify(args) -> int:
    from .adapt import (
        induced_rule_shift_invariance_check,
        load_model_with_scenario,
        verify_universal_adaptability,
    )
    from .predictor import prediction_matrix

    scenario = load_scenario(args.config)
    if scenario.weights is None:
        raise ConfigurationError(
            "adapt-verify needs a scenario with a weight class"
        )
    pred, replay_scenario = load_model_with_scenario(args.model, scenario)
    matrix = prediction_matrix(pred, replay_scenario)
    eps = args.epsilon if args.epsilon is not None else scenario.epsilon
    report = verify_universal_adaptability(
        matrix, scenario, eps, n_mixtures=args.mixtures, seed=args.seed
    )
    invariance = induced_rule_shift_invariance_check(matrix, scenario)
    report = dataclasses.replace(report, rule_invariance=invariance)
    print(json.dumps(report.to_json_dict(), indent=2))
    return EXIT_OK if report.passed else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="omnipredict",
        description=(
            "Train and audit predictors for decision-dependent outcomes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("scenario-show", help="summarize a scenario file")
    p.add_argument("--config", required=True, help="scenario JSON file")
    p.set_defaults(func=cmd_scenario_show)

    p = sub.add_parser("rct-gen", help="generate randomized trial data")
    p.add_argument("--config", required=True)
    p.add_argument("--n", type=_count, required=True, help="number of samples")
    p.add_argument("--seed", type=_nonnegative, default=0)
    p.add_argument("--out", required=True, help="output JSONL path")
    p.set_defaults(func=cmd_rct_gen)

    p = sub.add_parser("train", help="train a predictor until audits pass")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", choices=MODES, default=EXACT)
    p.add_argument("--epsilon", type=_epsilon, required=True)
    p.add_argument("--data", help="RCT JSONL, required by estimated modes")
    p.add_argument("--poi-n", type=_count, help="labeled prefix for rule audits")
    p.add_argument("--doi-n", type=_count, help="fresh samples per decision audit")
    p.add_argument(
        "--adapt",
        action="store_true",
        help="train against the weight-augmented loss collection",
    )
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--trace", help="trace JSONL path (default <out>.trace.jsonl)")
    # accepted and ignored only because perfbench/run.py passes it
    p.add_argument("--threads", type=_count, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("audit", help="audit a model, rule then decision checks")
    p.add_argument("--config", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--mode", choices=MODES, default=EXACT)
    p.add_argument("--epsilon", type=_epsilon, default=None)
    p.add_argument("--data", help="RCT JSONL, required by estimated modes")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("eval", help="risk table for every rule and loss")
    p.add_argument("--config", required=True)
    p.add_argument("--model", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--shift", help="evaluate under this weight's shift")
    group.add_argument(
        "--mixture", help="mixture of shifts as name:coeff,name:coeff"
    )
    p.add_argument("--out", required=True, help="CSV path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "adapt-verify", help="check optimality across all weight shifts"
    )
    p.add_argument("--config", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--epsilon", type=_epsilon, default=None)
    p.add_argument("--mixtures", type=_nonnegative, default=10)
    p.add_argument("--seed", type=_nonnegative, default=0)
    p.set_defaults(func=cmd_adapt_verify)

    return parser


def main(argv=None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()  # so that a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # point stdout at devnull, so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return EXIT_CONFIG


def _main(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigurationError, ModelMismatchError, DataFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BoundExceededError, LearnerContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except MemoryError as exc:  # a request too large to hold, such as a huge --n
        print(f"error: {args.command}: not enough memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
