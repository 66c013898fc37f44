"""Command-line pipeline: simulate, fit, diagnose, reliability.

Every command is bit-reproducible given the same flags and seed.  Exit
codes: 0 success, 1 usage or data error, 2 convergence warning under
``--strict``.  The output directory defaults to $BUGSIZE_OUT_DIR, then the
current directory; a command creates it only once its input checks out.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import dataio, diagnostics, reliability, simulate
from .model import ModelConfig
from .sampler import DEFAULT_BURN_IN_CAP, SamplerConfig, _check_campaign, run_all

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


def _out_dir(args) -> Path:
    """``--out``, else $BUGSIZE_OUT_DIR, else the current directory; created if missing."""
    out = Path(args.out if args.out is not None else os.environ.get("BUGSIZE_OUT_DIR", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


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
    fit.add_argument("--burn-in", type=int, default=None,
                     help="sweeps each chain discards before keeping draws (default: "
                          f"half of --iters, at most {DEFAULT_BURN_IN_CAP})")
    fit.add_argument("--thin", type=int, default=1)
    fit.add_argument("--nu", type=float, default=1.5, help="detection-decay exponent")
    fit.add_argument("--max-bugs", type=int, default=400)
    fit.add_argument("--dispersion", type=float, default=50.0)
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--threads", type=int, default=None,
                     help="max worker processes, one chain each (default: one per "
                          "chain, up to the usable CPUs; 1 runs the chains serially)")
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
                      help="comma-separated parameter filter "
                           "(default: every parameter in the file)")
    diag.add_argument("--out", default=None, help="output directory for trace files")
    diag.set_defaults(func=cmd_diagnose)
    return parser


def cmd_simulate(args) -> int:
    config = ModelConfig(
        max_bugs=args.max_bugs, size_exponent=args.nu, dispersion=args.dispersion
    )
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    campaign, truth = simulate.generate_campaign(
        config, args.missions, args.phases, args.true_bugs, (args.t_min, args.t_max), rng
    )
    out = _out_dir(args)
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


def _fit_workers(threads: int | None, chains: int) -> int:
    """Worker processes for ``fit``: ``--threads`` if given, else one per chain,
    up to the CPUs this process may run on."""
    if threads is not None:
        if threads < 1:
            raise ValueError(f"--threads must be >= 1, got {threads}")
        return threads
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(chains, cpus)


def cmd_fit(args) -> int:
    if not math.isfinite(args.rhat_warn):
        raise ValueError(f"--rhat-warn must be a finite number, got {args.rhat_warn}")
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
        workers=_fit_workers(args.threads, args.chains),
    )
    _check_campaign(campaign, model_config)
    out = _out_dir(args)
    chainset = run_all(campaign, model_config, sampler_config)
    report = diagnostics.summarize(chainset)
    dataio.write_draws(chainset, out / "draws.csv")
    doc = dataio.build_report(report, chainset, model_config)
    dataio.write_report(doc, out / "report.json")

    bugs = report["total_bugs"]
    psi = report["inclusion_prob"]
    worst_name, worst_rhat = diagnostics.worst_rhat(report)
    print(f"detected bugs: {campaign.detected_total}   candidates: {args.max_bugs}")
    print(f"burn-in {chainset.burn_in} of {chainset.iterations} sweeps per chain, "
          f"{chainset.kept_per_chain} kept")
    print(
        f"total bugs:     mean {bugs.pooled_mean:.4f}   "
        f"95% CI [{bugs.ci_lower:.0f}, {bugs.ci_upper:.0f}]"
    )
    print(f"inclusion prob: mean {psi.pooled_mean:.4f}")
    print(f"worst split R-hat: {worst_rhat:.4f} ({worst_name})")
    print(f"draws:  {out / 'draws.csv'}")
    print(f"report: {out / 'report.json'}")
    totals = chainset.pooled("total_bugs")
    at_ceiling = int(np.count_nonzero(totals == args.max_bugs))
    if at_ceiling:
        print(f"warning: {at_ceiling} of {totals.size} kept total_bugs draws "
              f"({at_ceiling / totals.size:.1%}) sit at the --max-bugs ceiling of "
              f"{args.max_bugs}, so the posterior may be cut off there; refit with a "
              f"larger --max-bugs", file=sys.stderr)
    if math.isnan(worst_rhat):
        warning = ("split R-hat could not be computed, so convergence was not checked; "
                   "it needs 2 chains of at least 4 kept draws each")
    elif worst_rhat > args.rhat_warn:
        warning = (f"split R-hat {worst_rhat:.4f} on {worst_name} exceeds "
                   f"{args.rhat_warn}; consider more iterations")
    else:
        return EXIT_OK
    print(f"warning: {warning}", file=sys.stderr)
    return EXIT_CONVERGENCE if args.strict else EXIT_OK


def _parse_epsilons(raw: str) -> list[float]:
    try:
        values = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"could not parse thresholds {raw!r}") from None
    if not values:
        raise ValueError("need at least one threshold")
    return values


def cmd_reliability(args) -> int:
    chainset = dataio.read_draws(args.draws)
    curve = reliability.reliability_curve(chainset, _parse_epsilons(args.epsilon))
    out = _out_dir(args)
    dataio.write_reliability_curve(curve, out / "reliability.csv")
    print("epsilon  reliability")
    for epsilon, probability in curve:
        print(f"{epsilon:7.1f}  {probability:.7f}")
    print(f"curve: {out / 'reliability.csv'}")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    chainset = dataio.read_draws(args.draws)
    if chainset.n_chains < 2:
        raise ValueError(f"{args.draws}: need >=2 chains for convergence diagnostics")
    if chainset.kept_per_chain < 4:
        raise ValueError(f"{args.draws}: split R-hat needs at least 4 kept draws per chain, "
                         f"the file holds {chainset.kept_per_chain}")
    names = chainset.names
    if args.params is not None:
        wanted = [tok.strip() for tok in args.params.split(",") if tok.strip()]
        if not wanted:
            raise ValueError(f"--params {args.params!r} names no parameter")
        repeated = sorted({name for name in wanted if wanted.count(name) > 1})
        if repeated:
            raise ValueError(f"--params names {', '.join(repeated)} more than once")
        unknown = [name for name in wanted if name not in names]
        if unknown:
            raise ValueError(
                f"unknown parameter(s) {', '.join(unknown)}; tracked: {', '.join(names)}"
            )
        names = wanted
    out = _out_dir(args)
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
        # str(KeyError) quotes its message; an OSError's args[0] is its errno
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"bugsize: error: {message}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
