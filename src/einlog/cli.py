"""Command-line interface.

Subcommands: ``infer`` (run inference, write marginals), ``plan`` (show
the contraction plan of each implication, a summed one's naming both
specs), ``demo-transitivity`` (noisy block-matrix repair),
``aucpr`` (ranking metric), ``check`` (random engine-vs-oracle equivalence
trials).  Exit codes: 0 success, 1 usage error, 2 data error,
3 internal check failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import engine, io, oracle, testing
from .demo import run_demo
from .engine import EngineConfig, EngineError, IterationTrace
from .fol import RuleError, content_lines, parse_rules
from .kb import EvidenceError, KnowledgeBase, load_evidence, load_queries
from .metrics import MetricError, auc_pr
from .planner import PlanError
from .tensor import TensorError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECK = 3

_DATA_ERRORS = (RuleError, EvidenceError, EngineError, PlanError, TensorError,
                MetricError, oracle.OracleError, OSError, ValueError)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _parse_weight_overrides(items) -> dict[str, float]:
    out = {}
    for item in items or ():
        if "=" not in item:
            raise UsageError(f"--weight expects NAME=VALUE, got {item!r}")
        name, value = item.split("=", 1)
        try:
            weight = float(value)
        except ValueError:
            weight = math.nan
        if not math.isfinite(weight):
            raise UsageError(f"bad weight value in {item!r}")
        out[name] = weight
    return out


def cmd_infer(args) -> int:
    if args.iterations < 1:
        raise UsageError("--iterations must be >= 1")
    ruleset = parse_rules(_read(args.rules))
    kb = load_evidence(_read(args.evidence), ruleset.predicates)
    phi = io.load_unary(_read(args.unary) if args.unary else "", kb)
    queries = load_queries(_read(args.queries), kb) if args.queries else None
    config = EngineConfig(iterations=args.iterations,
                          weights=_parse_weight_overrides(args.weight),
                          damping=args.damping)

    program = engine.compile_rules(ruleset, kb)
    if args.oracle:
        gap = testing.engine_oracle_gap(kb, ruleset, phi, config.weights)
        print(f"oracle cross-check: max deviation {gap:.3e}", file=sys.stderr)
        if gap > testing.ORACLE_TOL:
            print("oracle cross-check FAILED", file=sys.stderr)
            return EXIT_CHECK

    trace = IterationTrace()
    result = engine.iterate(phi, program, config, trace=trace)
    for ci in program.implications:
        print(ci.describe(), file=sys.stderr)
    print("logit bound per predicate: " + (", ".join(
        f"{name} {bound:.3e} (finite check "
        f"{'skipped' if bound < engine.LOGIT_LIMIT else 'runs'})"
        for name, bound in trace.bounds.items()) or "none"), file=sys.stderr)
    ran = len(trace.seconds)
    if not ran:     # a program with no table runs no iteration
        print("converged: no table", file=sys.stderr)
    else:
        secs = ", ".join(f"{s:.4f}s" for s in trace.seconds)
        residual = ", ".join(f"{r:.3e}" for r in trace.residual)
        changed = ", ".join(map(str, trace.changed))
        print(f"iterations={ran} wall clock per iteration: {secs}; "
              f"latent cells whose argmax changed: {changed}; "
              f"residual max|q_t - q_t-1|: {residual}", file=sys.stderr)
        if ran < config.iterations:
            print(f"stopped at an exact fixed point: iteration {ran} of {config.iterations} "
                  "reproduced the state it read bit for bit", file=sys.stderr)
        print(f"converged: {'yes' if trace.converged else 'no'} (last residual "
              f"{trace.residual[-1]:.3e}, {trace.changed[-1]} cells flipped)", file=sys.stderr)

    text = (io.format_marginals_json(result, kb, queries) if args.format == "json"
            else io.format_marginals_csv(result, kb, queries))
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_plan(args) -> int:
    if args.entities < 1:
        raise UsageError("--entities must be >= 1")
    ruleset = parse_rules(_read(args.rules))
    if not len(ruleset):
        raise RuleError("no formulas in rule file")
    # synthetic domain of --entities entities: the rules' constants, then fillers
    constants = []
    for formula in ruleset:
        for clause in formula.clauses:
            for lit in clause.literals:
                for term in lit.args:
                    if term.is_constant and term.symbol not in constants:
                        constants.append(term.symbol)
    if len(constants) > args.entities:
        raise UsageError(f"--entities {args.entities} is fewer than the "
                         f"{len(constants)} constants the rules name")
    kb = KnowledgeBase(constants + [f"e{i}" for i in range(args.entities - len(constants))],
                       ruleset.predicates, {})
    program = engine.compile_rules(ruleset, kb)
    for ci in program.implications:
        plan = ci.plan
        print(f"# rule {ci.rule_id} clause {ci.clause_id} -> {ci.hypothesis} (labels "
              f"{list(ci.target_labels)}), {ci.specs()}{' symmetric' if ci.symmetric else ''}")
        print(plan.describe())
        ratio = plan.naive_cost / plan.total_cost if plan.total_cost else float("inf")
        print(f"naive={int(plan.naive_cost)} optimized={int(plan.total_cost)} "
              f"ratio={ratio:.1f}")
        print()
    return EXIT_OK


def cmd_demo(args) -> int:
    if args.tokens < 3:
        raise UsageError("--tokens must be >= 3")
    if args.iterations < 1:
        raise UsageError("--iterations must be >= 1")
    report = run_demo(args.tokens, args.noise, args.seed,
                      iterations=args.iterations, weight=args.weight,
                      blocks=args.blocks, margin=args.margin)
    print(report.summary())
    return EXIT_OK


def cmd_aucpr(args) -> int:
    ruleset = parse_rules(_read(args.rules))
    text = _read(args.truth)
    kb = load_evidence(text, ruleset.predicates)
    predictions = io.load_predictions(_read(args.predictions), kb)
    # The truth file read as evidence holds the truth (label 1 is true).  The
    # one thing evidence takes that truth does not is an '=LABEL' suffix.
    for lineno, line in content_lines(text):
        if "=" in line:
            raise EvidenceError(f"line {lineno}: malformed truth atom {line!r}")
    truth = {key: label == 1 for key, label in kb.observations.items()}
    if set(predictions) != set(truth):
        raise EvidenceError("prediction and truth atom sets differ")
    keys = sorted(predictions)
    value = auc_pr([predictions[k] for k in keys], [truth[k] for k in keys])
    print(f"{value:.9f}")
    return EXIT_OK


def cmd_check(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    started = time.perf_counter()
    worst, failures = testing.run_equivalence_suite(args.trials, args.seed)
    elapsed = time.perf_counter() - started
    print(f"{args.trials} trials in {elapsed:.1f}s; worst gap {worst:.3e}")
    if failures:
        tol = np.format_float_scientific(testing.ORACLE_TOL, trim="-", exp_digits=1)
        print(f"{failures} trials exceeded {tol}")
        return EXIT_CHECK
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="einlog",
                     description="Markov logic mean-field inference via einsums")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("infer", help="run inference and write marginals")
    p.add_argument("--rules", required=True)
    p.add_argument("--evidence", required=True)
    p.add_argument("--unary", default=None)
    p.add_argument("--queries", default=None)
    p.add_argument("--iterations", type=int, default=5)
    p.add_argument("--weight", action="append", metavar="NAME=V")
    p.add_argument("--damping", type=float, default=0.0,
                   help="q <- (1-d)*q_new + d*q_old each iteration, d in [0, 1]")
    p.add_argument("--output", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check one iteration against the sequential oracle")
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("plan", help="print the contraction plan of each implication; "
                       "a summed one names both specs")
    p.add_argument("--rules", required=True)
    p.add_argument("--entities", type=int, default=8,
                   help="domain size used for costs, the rules' constants included")
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("demo-transitivity", help="noisy block-matrix repair demo")
    p.add_argument("--tokens", type=int, default=64)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iterations", type=int, default=5)
    p.add_argument("--weight", type=float, default=1.0)
    p.add_argument("--blocks", type=int, default=4)
    p.add_argument("--margin", type=float, default=2.0)
    p.set_defaults(fn=cmd_demo)

    p = sub.add_parser("aucpr", help="area under the precision-recall curve")
    p.add_argument("--rules", required=True, help="rule file declaring predicates")
    p.add_argument("--predictions", required=True)
    p.add_argument("--truth", required=True)
    p.set_defaults(fn=cmd_aucpr)

    p = sub.add_parser("check", help="random engine-vs-oracle equivalence trials")
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
