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
from .model import (
    constant_gap_mixture,
    divergence,
    figure1_mixture,
    load_model,
    sample,
    save_model,
)
from .solvers import (
    DEFAULT_ENUMERATION_CAP,
    METHODS,
    DegenerateInstanceError,
    EnumerationCapError,
    judge,
    solve,
)

_REFUSALS = (EnumerationCapError, DegenerateInstanceError, harness.ValidationError)


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; argparse's default 2 is reserved for refusals
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> "_Parser":
    parser = _Parser(prog="mixcut", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("gen", help="emit a mixture model JSON file")
    gen.add_argument("--out", required=True)
    gen.add_argument("--k", type=int, required=True)
    kind = gen.add_mutually_exclusive_group(required=True)
    kind.add_argument("--figure1", action="store_true",
                      help="canned biased mixture (gamma ~ 0.0016 at defaults)")
    kind.add_argument("--gap-gamma", type=float,
                      help="constant-gap mixture with this divergence")
    gen.add_argument("--fraction-biased", type=float, default=0.1)
    gen.add_argument("--small", type=float, default=1e-5)
    gen.add_argument("--large", type=float, default=0.1265)
    gen.add_argument("--base", type=float, default=0.5)

    solve = sub.add_parser("solve", help="sample one dataset and solve it")
    solve.add_argument("--model", required=True)
    solve.add_argument("--n", type=int, required=True)
    solve.add_argument("--seed", type=int, required=True)
    solve.add_argument("--method", choices=METHODS, required=True)
    solve.add_argument("--metric", choices=[m.value for m in Metric], default=Metric.HAMMING.value,
                       help="unit of the reported weights; the cut is the same under either "
                            "(the maximum Hamming cut is the minimum score cut)")
    solve.add_argument("--restarts", type=int, default=8)
    solve.add_argument("--first-improvement", action="store_true")
    solve.add_argument("--cap-nodes", type=int, default=DEFAULT_ENUMERATION_CAP)

    phase = sub.add_parser("phase", help="run a sweep config and write CSV")
    phase.add_argument("--config", required=True)

    bounds = sub.add_parser("bounds", help="evaluate the theory bound report")
    bounds.add_argument("--n", type=int, required=True)
    bounds.add_argument("--k", type=int, required=True)
    bounds.add_argument("--gamma", type=float, required=True)

    verify = sub.add_parser("verify", help="run the concentration checks")
    src = verify.add_mutually_exclusive_group(required=True)
    src.add_argument("--model")
    src.add_argument("--gap-gamma", type=float)
    src.add_argument("--figure1", action="store_true")
    verify.add_argument("--k", type=int,
                        help="dimension count of --gap-gamma or --figure1 (default 50); "
                             "refused with --model, whose file fixes K")
    verify.add_argument("--n", type=int, default=4)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--tau", type=float, default=0.01)
    verify.add_argument("--pairs", type=int, default=100_000)
    verify.add_argument("--cut-samples", type=int, default=10_000)
    verify.add_argument("--node-draws", type=int, default=100_000)
    verify.add_argument("--imbalance-draws", type=int, default=10_000)
    verify.add_argument("--imbalance-l", type=int, default=4)
    verify.add_argument("--l-grid", type=int, nargs="+", default=[1, 2])
    return parser


def _cmd_gen(args) -> int:
    if args.figure1:
        model = figure1_mixture(
            args.k,
            fraction_biased=args.fraction_biased,
            small=args.small,
            large=args.large,
            base=args.base,
        )
    else:
        model = constant_gap_mixture(args.k, gamma=args.gap_gamma, base=args.base)
    save_model(model, args.out)
    print(f"wrote {args.out}: K={model.k} gamma={divergence(model):.6g}")
    return 0


def _cmd_solve(args) -> int:
    model = load_model(args.model)
    if divergence(model) == 0.0:
        raise harness.ValidationError("model has gamma = 0; separation is impossible")
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


def _fmt_case(label: str, parts: list, flags: list) -> str:
    cond = " and ".join(parts)
    status = ", ".join(f"{name}={'yes' if ok else 'no'}" for name, ok in flags)
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
        _fmt_case("case1", [f"KN >= {rk.case1_kn:.6g}", f"(K >= {rk.case1_k:.6g} implied)"],
                  [("KN", sat["case1_kn"])]),
        _fmt_case("case2", [f"K >= {rk.case2_k:.6g}", f"KN >= {rk.case2_kn:.6g}"],
                  [("K", sat["case2_k"]), ("KN", sat["case2_kn"])]),
        _fmt_case("case3", [f"K >= {rk.case3_k:.6g}"], [("K", sat["case3_k"])]),
        _fmt_case("rho1", [f"K >= {rk.rho1_k:.6g}"], [("K", sat["rho1_k"])]),
        f"  active case: {rk.active_case} (effective K >= {rk.active_k_threshold():.6g}; "
        f"satisfied={'true' if sat['active'] else 'false'})",
    ]
    print("\n".join(lines))
    print(json.dumps(dataclasses.asdict(report)))
    return 0


def _cmd_verify(args) -> int:
    if args.model is not None:
        if args.k is not None:
            raise harness.ValidationError("--k cannot be given with --model: the model file fixes K")
        model = load_model(args.model)
    else:
        k = 50 if args.k is None else args.k
        model = figure1_mixture(k) if args.figure1 else constant_gap_mixture(k, gamma=args.gap_gamma)
    cfg = harness.VerifyConfig(
        model=model,
        n=args.n,
        l_grid=tuple(args.l_grid),
        tau=args.tau,
        pairs=args.pairs,
        cut_samples=args.cut_samples,
        node_draws=args.node_draws,
        imbalance_draws=args.imbalance_draws,
        imbalance_l=args.imbalance_l,
        seed=args.seed,
    )
    report = harness.verify_concentration(cfg)
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
