"""Command-line surface: generate trial data, train, audit, evaluate.

Exit codes are a contract: 0 success or pass, 1 flag misuse, 2 invalid
scenario or model files, 3 an audit violation or a failed guarantee.
All outputs are deterministic given flags and seeds.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys

from .adapt import (
    MixtureSpec,
    induced_rule_shift_invariance_check,
    load_model_with_scenario,
    mixture_distribution,
    model_scenario,
    optimality,
    rule_terms,
    shift_distribution,
    verify_universal_adaptability,
)
from .audit import (
    CSC,
    EMPIRICAL,
    EXACT,
    MODES,
    audit_doi_empirical,
    audit_doi_exact,
    audit_poi_csc,
    audit_poi_empirical,
    audit_poi_exact,
)
from .boost import BoostConfig, poi_boost, write_trace
from .core import load_scenario
from .errors import (
    ArgumentError,
    BoundExceededError,
    ConfigurationError,
    DataFormatError,
    LearnerContractError,
    ModelMismatchError,
)
from .predictor import prediction_matrix, save_model
from .rct import generate_rct, read_jsonl, write_jsonl

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


def _seed(text: str) -> int:
    """argparse type for --seed: a nonnegative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return value


def _resolve_threads(value) -> int:
    if value is None:
        env = os.environ.get("OMNI_THREADS")
        if env is None or env == "":
            return 1
        try:
            value = int(env)
        except ValueError:
            raise ArgumentError(f"OMNI_THREADS={env!r} is not an integer")
    if value < 1:
        raise ArgumentError(f"--threads must be at least 1, got {value}")
    return value


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
    scenario = load_scenario(args.config)
    data = generate_rct(scenario, args.n, args.seed)
    write_jsonl(data, args.out)
    print(f"wrote {data.n} samples to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    threads = _resolve_threads(args.threads)
    scenario = load_scenario(args.config)
    train_scenario = model_scenario(scenario, args.adapt)
    if args.mode in (EMPIRICAL, CSC) and args.data is None:
        raise ArgumentError(f"--data is required in {args.mode} mode")
    data = None
    poi_n = doi_n = None
    if args.data is not None:
        data = read_jsonl(args.data, train_scenario)
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
        threads=threads,
        adapt=args.adapt,
    )
    trace_path = args.trace if args.trace is not None else args.out + ".trace.jsonl"
    try:
        result = poi_boost(train_scenario, config)
    except BoundExceededError as exc:
        if exc.trace is not None:
            write_trace(exc.trace, trace_path)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    write_trace(result.trace, trace_path)
    if result.termination != "converged":
        print(
            f"training stopped without converging ({result.termination}) "
            f"after {result.trace.updates} updates",
            file=sys.stderr,
        )
        return EXIT_FAIL
    save_model(result.predictor, args.out)
    print(
        f"converged after {result.trace.updates} updates; "
        f"model written to {args.out}"
    )
    return EXIT_OK


def cmd_audit(args) -> int:
    threads = _resolve_threads(args.threads)
    scenario = load_scenario(args.config)
    pred, audit_scenario = load_model_with_scenario(args.model, scenario)
    eps = args.epsilon if args.epsilon is not None else scenario.epsilon
    if args.mode in (EMPIRICAL, CSC) and args.data is None:
        raise ArgumentError(f"--data is required in {args.mode} mode")

    matrix = prediction_matrix(pred, audit_scenario)
    if args.mode == EXACT:
        _, poi_report = audit_poi_exact(matrix, audit_scenario, eps, threads=threads)
        _, doi_report = audit_doi_exact(matrix, audit_scenario, eps, threads=threads)
    else:
        data = read_jsonl(args.data, audit_scenario)
        if args.mode == EMPIRICAL:
            _, poi_report = audit_poi_empirical(
                matrix, data, data.xs, audit_scenario, eps
            )
        else:
            _, poi_report = audit_poi_csc(matrix, data, audit_scenario, eps)
        _, doi_report = audit_doi_empirical(matrix, data, data.xs, audit_scenario, eps)

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


def _parse_mixture_flag(text: str) -> MixtureSpec:
    components = []
    for part in text.split(","):
        if ":" not in part:
            raise ArgumentError(
                f"bad mixture component {part!r}; expected name:coefficient"
            )
        name, _, raw = part.partition(":")
        try:
            lam = float(raw)
        except ValueError:
            raise ArgumentError(f"bad mixture coefficient {raw!r} for {name!r}")
        components.append((name.strip(), lam))
    return MixtureSpec(components=tuple(components))


def cmd_eval(args) -> int:
    scenario = load_scenario(args.config)
    pred, eval_scenario = load_model_with_scenario(args.model, scenario)
    dist = scenario.input_distribution
    if args.shift is not None:
        if scenario.weights is None:
            raise ArgumentError(
                f"--shift {args.shift!r}: scenario has no weight class"
            )
        dist = shift_distribution(dist, scenario.weights.by_name(args.shift))
    elif args.mixture is not None:
        if scenario.weights is None:
            raise ArgumentError("--mixture: scenario has no weight class")
        spec = _parse_mixture_flag(args.mixture)
        dist = mixture_distribution(dist, scenario.weights, spec)

    names, terms = rule_terms(prediction_matrix(pred, eval_scenario), scenario)
    risks, _, _, passed = optimality(terms, scenario, dist, pred.fingerprint.epsilon)
    h = len(scenario.hypotheses)
    rows = []
    for r, name in enumerate(names):
        for j, loss in enumerate(scenario.losses):
            verdict = "" if r != h + j else "true" if passed[j] else "false"
            rows.append((name, loss.name, repr(risks[j][r]), verdict))

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["rule", "loss", "risk", "optimal_within_2eps"])
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_adapt_verify(args) -> int:
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
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="output JSONL path")
    p.set_defaults(func=cmd_rct_gen)

    p = sub.add_parser("train", help="train a predictor until audits pass")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", choices=MODES, default=EXACT)
    p.add_argument("--epsilon", type=_epsilon, required=True)
    p.add_argument("--data", help="RCT JSONL, required by estimated modes")
    p.add_argument("--poi-n", type=int, help="labeled prefix for rule audits")
    p.add_argument("--doi-n", type=int, help="fresh samples per decision audit")
    p.add_argument(
        "--adapt",
        action="store_true",
        help="train against the weight-augmented loss collection",
    )
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--trace", help="trace JSONL path (default <out>.trace.jsonl)")
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("audit", help="audit a model, rule then decision checks")
    p.add_argument("--config", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--mode", choices=MODES, default=EXACT)
    p.add_argument("--epsilon", type=_epsilon, default=None)
    p.add_argument("--data", help="RCT JSONL, required by estimated modes")
    p.add_argument("--threads", type=int, default=None)
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
    p.add_argument("--mixtures", type=int, default=10)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_adapt_verify)

    return parser


def main(argv=None) -> int:
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


if __name__ == "__main__":
    sys.exit(main())
