"""Command-line pipeline: simulate, fit, diagnose, reliability.

Every command is bit-reproducible given the same flags and seed.  Exit
codes: 0 success, 1 usage or data error, 2 convergence warning under
``--strict``.  The output directory defaults to $BUGSIZE_OUT_DIR, then the
current directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import dataio, diagnostics, reliability, simulate
from .model import ModelConfig
from .sampler import SamplerConfig, run_all

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONVERGENCE = 2


class _Parser(argparse.ArgumentParser):
    # data and usage problems share exit code 1; argparse's default is 2,
    # which this tool reserves for convergence warnings
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _default_out() -> str:
    return os.environ.get("BUGSIZE_OUT_DIR", ".")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bugsize", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic campaign with ground truth")
    sim.add_argument("--missions", type=int, default=30)
    sim.add_argument("--phases", type=int, default=8)
    sim.add_argument("--true-bugs", type=int, default=100)
    sim.add_argument("--max-bugs", type=int, default=400)
    sim.add_argument("--t-min", type=int, default=0)
    sim.add_argument("--t-max", type=int, default=50)
    sim.add_argument("--nu", type=float, default=1.5, help="detection-decay exponent")
    sim.add_argument("--dispersion", type=float, default=50.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", default=None, help="output directory")
    sim.set_defaults(func=cmd_simulate)

    fit = sub.add_parser("fit", help="fit a campaign and write draws plus a report")
    fit.add_argument("campaign", help="campaign CSV path")
    fit.add_argument("--chains", type=int, default=3)
    fit.add_argument("--iters", type=int, default=50_000)
    fit.add_argument("--burn-in", type=int, default=None)
    fit.add_argument("--thin", type=int, default=1)
    fit.add_argument("--nu", type=float, default=1.5, help="detection-decay exponent")
    fit.add_argument("--max-bugs", type=int, default=400)
    fit.add_argument("--dispersion", type=float, default=50.0)
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--threads", type=int, default=1,
                     help="max worker processes (one chain each)")
    fit.add_argument("--rhat-warn", type=float, default=1.1)
    fit.add_argument("--strict", action="store_true",
                     help="treat a convergence warning as a soft failure (exit 2)")
    fit.add_argument("--out", default=None, help="output directory")
    fit.set_defaults(func=cmd_fit)

    rel = sub.add_parser("reliability", help="reliability curve from a draws file")
    rel.add_argument("draws", help="draws CSV path")
    rel.add_argument("--epsilon", required=True,
                     help="comma-separated, strictly increasing thresholds")
    rel.add_argument("--out", default=None, help="output directory")
    rel.set_defaults(func=cmd_reliability)

    diag = sub.add_parser("diagnose", help="convergence diagnostics and trace exports")
    diag.add_argument("draws", help="draws CSV path")
    diag.add_argument("--params", default=None,
                      help="comma-separated parameter filter (default: all tracked)")
    diag.add_argument("--out", default=None, help="output directory for trace files")
    diag.set_defaults(func=cmd_diagnose)
    return parser


def cmd_simulate(args) -> int:
    out = Path(args.out if args.out is not None else _default_out())
    out.mkdir(parents=True, exist_ok=True)
    config = ModelConfig(
        max_bugs=args.max_bugs, size_exponent=args.nu, dispersion=args.dispersion
    )
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    campaign, truth = simulate.generate_campaign(
        config, args.missions, args.phases, args.true_bugs, (args.t_min, args.t_max), rng
    )
    dataio.write_campaign(campaign, out / "campaign.csv")
    truth_doc = {
        "format": dataio.TRUTH_FORMAT,
        "seed": args.seed,
        "true_bugs": truth.true_bugs,
        "detected": truth.detected_total,
        "remaining_size": truth.remaining_size,
        "size": truth.size,
        "mean_size": truth.mean_size,
        "cell": truth.cell,
        "config": {
            "missions": args.missions,
            "phases": args.phases,
            "max_bugs": args.max_bugs,
            "size_exponent": args.nu,
            "dispersion": args.dispersion,
            "t_range": [args.t_min, args.t_max],
        },
    }
    dataio.write_report(truth_doc, out / "truth.json")
    print(f"campaign: {out / 'campaign.csv'}")
    print(f"truth:    {out / 'truth.json'}")
    print(
        f"missions={campaign.missions} phases={campaign.phases} "
        f"true_bugs={truth.true_bugs} detected={truth.detected_total} "
        f"remaining_size={truth.remaining_size}"
    )
    return EXIT_OK


def cmd_fit(args) -> int:
    out = Path(args.out if args.out is not None else _default_out())
    out.mkdir(parents=True, exist_ok=True)
    campaign = dataio.read_campaign(args.campaign)
    model_config = ModelConfig(
        max_bugs=args.max_bugs, size_exponent=args.nu, dispersion=args.dispersion
    )
    sampler_config = SamplerConfig(
        chains=args.chains,
        iterations=args.iters,
        burn_in=args.burn_in,
        thin=args.thin,
        seed=args.seed,
        workers=args.threads,
    )
    chainset = run_all(campaign, model_config, sampler_config)
    report = diagnostics.summarize(chainset)
    dataio.write_draws(chainset, out / "draws.csv")
    doc = dataio.build_report(report, chainset, model_config, sampler_config)
    dataio.write_report(doc, out / "report.json")

    bugs = report["total_bugs"]
    psi = report["inclusion_prob"]
    worst_name, worst_rhat = report.worst_rhat()
    print(f"detected bugs: {campaign.detected_total}   candidates: {args.max_bugs}")
    print(
        f"total bugs:     mean {bugs.pooled_mean:.4f}   "
        f"95% CI [{bugs.ci_lower:.0f}, {bugs.ci_upper:.0f}]"
    )
    print(f"inclusion prob: mean {psi.pooled_mean:.4f}")
    print(f"worst split R-hat: {worst_rhat:.4f} ({worst_name})")
    print(f"draws:  {out / 'draws.csv'}")
    print(f"report: {out / 'report.json'}")
    if worst_rhat > args.rhat_warn:
        print(
            f"warning: split R-hat {worst_rhat:.4f} on {worst_name} exceeds "
            f"{args.rhat_warn}; consider more iterations",
            file=sys.stderr,
        )
        if args.strict:
            return EXIT_CONVERGENCE
    return EXIT_OK


def _parse_epsilons(raw: str) -> list[float]:
    try:
        values = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"could not parse thresholds {raw!r}") from None
    if not values:
        raise ValueError("need at least one threshold")
    return values


def cmd_reliability(args) -> int:
    out = Path(args.out if args.out is not None else _default_out())
    out.mkdir(parents=True, exist_ok=True)
    chainset = dataio.read_draws(args.draws)
    curve = reliability.reliability_curve(chainset, _parse_epsilons(args.epsilon))
    dataio.write_reliability_curve(curve, out / "reliability.csv")
    print("epsilon  reliability")
    for epsilon, probability in curve:
        print(f"{epsilon:7.1f}  {probability:.7f}")
    print(f"curve: {out / 'reliability.csv'}")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    out = Path(args.out if args.out is not None else _default_out())
    out.mkdir(parents=True, exist_ok=True)
    chainset = dataio.read_draws(args.draws)
    if chainset.n_chains < 2:
        raise ValueError("need >=2 chains for convergence diagnostics")
    names = chainset.parameters()
    if args.params is not None:
        wanted = [tok.strip() for tok in args.params.split(",") if tok.strip()]
        unknown = [name for name in wanted if name not in names]
        if unknown:
            raise ValueError(
                f"unknown parameter(s) {', '.join(unknown)}; tracked: {', '.join(names)}"
            )
        names = wanted
    print(f"{'parameter':<18} {'R-hat':>8} {'upper':>8} {'ESS':>12}")
    for name in names:
        x = chainset.matrix(name)
        rhat, upper = diagnostics.split_rhat(x)
        ess = diagnostics.effective_sample_size(x)
        print(f"{name:<18} {rhat:8.4f} {upper:8.4f} {ess:12.2f}")
        safe = name.replace("[", "_").replace("]", "")
        dataio.write_trace(diagnostics.trace_export(chainset, name), out / f"trace_{safe}.csv")
    print(f"trace files in: {out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"bugsize: error: {message}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
