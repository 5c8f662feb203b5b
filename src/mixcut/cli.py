"""Command-line entry point.

Subcommands: ``gen`` (emit a model file), ``solve`` (one dataset, one
method), ``phase`` (sweep to CSV), ``bounds`` (theory report), ``verify``
(concentration suite).  Exit codes: 0 success, 1 usage error, 2 cap or
validation refusal, 3 a gated ``verify`` check read FAIL (SKIP is not a
failure).  All randomness flows from ``--seed``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import harness, theory
from .graph import Metric
from .model import divergence, load_model, sample, save_model
from .solvers import (
    DEFAULT_ENUMERATION_CAP,
    DEFAULT_RESTARTS,
    METHODS,
    DegenerateInstanceError,
    EnumerationCapError,
    judge,
    solve,
)

_REFUSALS = (EnumerationCapError, DegenerateInstanceError, harness.ValidationError)

# K of the model `mixcut verify --gap-gamma` or `--figure1` checks when --k is not given
_VERIFY_K = 50


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; argparse's default 2 is reserved for refusals
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> "_Parser":
    parser = _Parser(prog="mixcut", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    # gen and verify leave out every flag not given (argparse.SUPPRESS), so
    # the generators' signatures and VerifyConfig own their defaults, and a
    # generator flag given reaches `harness.resolve_model` as a parameter
    gen = sub.add_parser("gen", help="emit a mixture model JSON file", argument_default=argparse.SUPPRESS)
    gen.add_argument("--out", required=True)
    gen.add_argument("--k", type=int, required=True)
    kind = gen.add_mutually_exclusive_group(required=True)
    kind.add_argument("--figure1", action="store_true",
                      help="canned biased mixture (gamma ~ 0.0016 at defaults)")
    kind.add_argument("--gap-gamma", type=float,
                      help="constant-gap mixture with this divergence")
    gen.add_argument("--fraction-biased", type=float)
    gen.add_argument("--small", type=float)
    gen.add_argument("--large", type=float)
    gen.add_argument("--base", type=float)

    solve = sub.add_parser("solve", help="sample one dataset and solve it")
    solve.add_argument("--model", required=True)
    solve.add_argument("--n", type=int, required=True)
    solve.add_argument("--seed", type=int, required=True)
    solve.add_argument("--method", choices=METHODS, required=True)
    solve.add_argument("--metric", choices=[m.value for m in Metric], default=Metric.HAMMING.value,
                       help="unit of the reported weights; the cut is the same under either "
                            "(the maximum Hamming cut is the minimum score cut)")
    solve.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS)
    solve.add_argument("--first-improvement", action="store_true")
    solve.add_argument("--cap-nodes", type=int, default=DEFAULT_ENUMERATION_CAP)

    phase = sub.add_parser("phase", help="run a sweep config and write CSV")
    phase.add_argument("--config", required=True)

    bounds = sub.add_parser("bounds", help="evaluate the theory bound report")
    bounds.add_argument("--n", type=int, required=True)
    bounds.add_argument("--k", type=int, required=True)
    bounds.add_argument("--gamma", type=float, required=True)

    verify = sub.add_parser("verify", help="run the concentration checks", argument_default=argparse.SUPPRESS)
    src = verify.add_mutually_exclusive_group(required=True)
    src.add_argument("--model")
    src.add_argument("--gap-gamma", type=float)
    src.add_argument("--figure1", action="store_true")
    verify.add_argument("--k", type=int,
                        help=f"dimension count of --gap-gamma or --figure1 (default {_VERIFY_K}); "
                             "refused with --model, whose file fixes K")
    verify.add_argument("--n", type=int)
    verify.add_argument("--seed", type=int)
    verify.add_argument("--tau", type=float)
    verify.add_argument("--pairs", type=int)
    verify.add_argument("--cut-samples", type=int)
    verify.add_argument("--node-draws", type=int)
    verify.add_argument("--imbalance-draws", type=int)
    verify.add_argument("--imbalance-l", type=int)
    verify.add_argument("--l-grid", type=int, nargs="+")
    return parser


def _model_source(flags: dict) -> dict:
    """The `harness.resolve_model` source that --figure1 or --gap-gamma in
    `flags` names, with the rest of `flags` as the generator's parameters,
    so one that the generator does not take is refused by name."""
    params = dict(flags)
    if params.pop("figure1", False):
        return {"figure1": params}
    return {"constant_gap": {"gamma": params.pop("gap_gamma"), **params}}


def _cmd_gen(args) -> int:
    flags = {flag: value for flag, value in vars(args).items() if flag not in ("command", "out", "k")}
    model = harness.resolve_model(_model_source(flags), args.k)
    save_model(model, args.out)
    print(f"wrote {args.out}: K={model.k} gamma={divergence(model):.6g}")
    return 0


def _cmd_solve(args) -> int:
    model = harness.require_separation(load_model(args.model))
    dataset = sample(model, args.n, args.seed)
    metric = Metric(args.metric)
    result = solve(
        dataset, args.method, metric, restarts=args.restarts, seed=args.seed,
        first_improvement=args.first_improvement, cap_nodes=args.cap_nodes,
    )
    true_weight, l_from_truth, _tie_with_truth, success = judge(dataset, result, metric)
    print(json.dumps({
        "success": success,
        "method": result.method,
        "metric": metric.value,
        "best_weight": result.best_weight,
        "true_weight": true_weight,
        "L": l_from_truth,
        "tie": result.tie,
        "evaluations": result.evaluations,
        "gamma": divergence(model),
        "n": args.n,
        "k": model.k,
        "seed": args.seed,
        "side_s": list(result.best_cut.side_s),
    }))
    return 0


def _cmd_phase(args) -> int:
    config = harness.ExperimentConfig.from_file(args.config)
    aggregates = harness.phase_diagram(config)
    print(f"wrote {config.output}: {len(aggregates)} cells")
    return 0


def _fmt_case(label: str, names: tuple, rk, sat: dict, notes: list) -> str:
    """One threshold line: each named threshold, a "_kn" one on KN and any
    other on K, then `notes`, and whether each is met."""
    units = [name.rsplit("_", 1)[1].upper() for name in names]
    cond = " and ".join([f"{unit} >= {getattr(rk, name):.6g}" for unit, name in zip(units, names)] + notes)
    status = ", ".join(f"{unit}={'yes' if sat[name] else 'no'}" for unit, name in zip(units, names))
    return f"  {label:<6} {cond:<58} [{status}]"


def _cmd_bounds(args) -> int:
    if args.n < 4:
        raise harness.ValidationError("bounds need N >= 4")
    if args.gamma <= 0.0:
        raise harness.ValidationError("bounds need gamma > 0")
    report = theory.failure_budget(args.n, args.k, args.gamma)
    rk = report.required_k
    sat = report.satisfied
    show = min(len(report.rho3), 8)
    notes = {"case1": [f"(K >= {rk.case1_k:.6g} implied)"]}
    cases = list(theory.CASE_NEEDS.items()) + [("rho1", ("rho1_k",))]
    lines = [
        f"bound report  N={report.n}  K={report.k}  gamma={report.gamma:.6g}",
        f"log convention: {report.log_convention}",
        f"{'delta':<22}= {report.delta:.6g}",
        f"{'rho1 = 2N/N^32':<22}= {report.rho1:.6g}",
        f"{'rho2':<22}= {report.rho2_order}; stand-in 1/(2^(2N) N^(3/2)) = {report.rho2_standin:.6g}",
        f"{'union bound total':<22}= {report.union_bound_total:.6g}",
        "sigma^2 bound by L: "
        + "  ".join(f"L={l + 1}: {v:.6g}" for l, v in enumerate(report.sigma_sq[:show]))
        + (" ..." if len(report.sigma_sq) > show else ""),
        "rho3 by L:          "
        + "  ".join(f"L={l + 1}: {v:.6g}" for l, v in enumerate(report.rho3[:show]))
        + (" ..." if len(report.rho3) > show else ""),
        "required K thresholds:",
        *(_fmt_case(label, names, rk, sat, notes.get(label, [])) for label, names in cases),
        f"  active case: {rk.active_case} (effective K >= {rk.active_k_threshold():.6g}; "
        f"satisfied={'true' if sat['active'] else 'false'})",
    ]
    print("\n".join(lines))
    print(json.dumps(dataclasses.asdict(report)))
    return 0


def _cmd_verify(args) -> int:
    given = {flag: value for flag, value in vars(args).items() if flag != "command"}
    if "model" in given:
        if "k" in given:
            raise harness.ValidationError("--k cannot be given with --model: the model file fixes K")
        model = load_model(given.pop("model"))
    else:
        flags = {flag: given.pop(flag) for flag in ("figure1", "gap_gamma") if flag in given}
        model = harness.resolve_model(_model_source(flags), given.pop("k", _VERIFY_K))
    if "l_grid" in given:
        given["l_grid"] = tuple(given["l_grid"])
    report = harness.verify_concentration(harness.VerifyConfig(model=model, **given))
    print(harness.format_report(report))
    return 0 if report.all_passed() else 3


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "phase": _cmd_phase,
    "bounds": _cmd_bounds,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except _REFUSALS as exc:
        print(f"mixcut {args.command}: refused: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"mixcut {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
