"""Command-line pipeline: simulate, fit, diagnose, reliability.

Every command is bit-reproducible given the same flags and seed.  Exit
codes: 0 success, 1 usage or data error, 2 convergence warning under
``--strict``.  The output directory defaults to $BUGSIZE_OUT_DIR, then the
current directory; a command creates it only once its input checks out.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from collections import Counter
from functools import partial
from itertools import takewhile
from pathlib import Path

import numpy as np

# A module only one command runs is imported inside it (simulate, reliability).
# The modules below load for every command, as two facts of perfbench/run.py
# require: its import-time check fails a run unless importing bugsize.cli lists
# bugsize.diagnostics, and its tracer wraps cli.run_all, which brings in the
# sampler and the model.
from . import dataio, diagnostics
from .model import ModelConfig
from .sampler import (DEFAULT_BURN_IN_CAP, SamplerConfig, _check_campaign,
                      _check_memory, run_all)

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONVERGENCE = 2
# a split R-hat above this is a convergence warning, and exit 2 under fit --strict
RHAT_WARN = 1.1


class _Parser(argparse.ArgumentParser):
    # data and usage problems share exit code 1; argparse's default is 2,
    # which this tool reserves for convergence warnings
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _out_dir(args) -> tuple[Path, list[Path]]:
    """``--out``, else $BUGSIZE_OUT_DIR, else the current directory, created if missing;
    and the directories that creating it made, deepest first."""
    out = Path(args.out if args.out is not None else os.environ.get("BUGSIZE_OUT_DIR", "."))
    made = list(takewhile(lambda d: not d.exists(), (out, *out.parents)))
    out.mkdir(parents=True, exist_ok=True)
    return out, made


def _number(kind, name: str, *, seed: bool = False):
    """An argparse ``type`` that reads a flag by :func:`dataio._parse_token`'s rule; argparse
    drops the rule's message and writes ``argument --flag: invalid <name> value: '<text>'``."""
    parse = partial(dataio._parse_token, kind, where="", what="", expected=name, seed=seed)
    parse.__name__ = name
    return parse


_FLOAT = _number(float, "finite number")
_INT = _number(int, "64-bit integer")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bugsize", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)  # simulate's and fit's common flags
    shared.add_argument("--max-bugs", type=_INT, default=400)
    shared.add_argument("--nu", type=_FLOAT, default=ModelConfig.size_exponent,
                        help="detection-decay exponent")
    shared.add_argument("--dispersion", type=_FLOAT, default=ModelConfig.dispersion)
    shared.add_argument("--seed", type=_number(int, "non-negative integer", seed=True), default=0)
    shared.add_argument("--out", default=None, help="output directory")

    sim = sub.add_parser("simulate", parents=[shared],
                         help="generate a synthetic campaign with ground truth")
    sim.add_argument("--missions", type=_INT, default=30)
    sim.add_argument("--phases", type=_INT, default=8)
    sim.add_argument("--true-bugs", type=_INT, default=100)
    sim.add_argument("--t-min", type=_INT, default=0)
    sim.add_argument("--t-max", type=_INT, default=50)
    sim.set_defaults(func=cmd_simulate)

    fit = sub.add_parser("fit", parents=[shared],
                         help="fit a campaign and write draws plus a report")
    fit.add_argument("campaign", help="campaign CSV path")
    fit.add_argument("--chains", type=_INT, default=SamplerConfig.chains)
    fit.add_argument("--iters", type=_INT, default=SamplerConfig.iterations)
    fit.add_argument("--burn-in", type=_INT, default=SamplerConfig.burn_in,
                     help="sweeps each chain discards before keeping draws (default: "
                          f"half of --iters, at most {DEFAULT_BURN_IN_CAP})")
    fit.add_argument("--threads", type=_INT, default=None,
                     help="max worker processes, which share the chains in sweep "
                          "segments (default: one per chain; never more than the usable "
                          "CPUs; 1 runs the chains serially)")
    fit.add_argument("--strict", action="store_true",
                     help="treat a convergence warning as a soft failure (exit 2): a "
                          f"split R-hat above {RHAT_WARN} or one that cannot be computed")
    fit.set_defaults(func=cmd_fit)

    rel = sub.add_parser("reliability", help="reliability curve from a draws file")
    rel.add_argument("draws", help="draws CSV path")
    rel.add_argument("--epsilon", required=True,
                     help="comma-separated thresholds: finite, non-negative, strictly "
                          "increasing")
    rel.add_argument("--out", default=None, help="output directory")
    rel.set_defaults(func=cmd_reliability)

    diag = sub.add_parser("diagnose", help="convergence diagnostics and trace exports")
    diag.add_argument("draws", help="draws CSV path")
    diag.add_argument("--out", default=None, help="output directory for trace files")
    diag.set_defaults(func=cmd_diagnose)
    return parser


def _model_config(args) -> ModelConfig:
    return ModelConfig(max_bugs=args.max_bugs, size_exponent=args.nu, dispersion=args.dispersion)


def cmd_simulate(args) -> int:
    from . import simulate

    config = _model_config(args)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    campaign, truth = simulate.generate_campaign(
        config, args.missions, args.phases, args.true_bugs, (args.t_min, args.t_max), rng
    )
    out, _ = _out_dir(args)
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
    at most the CPUs this process may run on."""
    if threads is not None and threads < 1:
        raise ValueError(f"--threads must be >= 1, got {threads}")
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(threads or chains, cpus)


def cmd_fit(args) -> int:
    campaign = dataio.read_campaign(args.campaign)
    model_config = _model_config(args)
    sampler_config = SamplerConfig(
        chains=args.chains,
        iterations=args.iters,
        burn_in=args.burn_in,
        seed=args.seed,
        workers=_fit_workers(args.threads, args.chains),
    )
    try:
        _check_campaign(campaign, model_config)
    except ValueError as exc:
        raise ValueError(f"{args.campaign}: {exc}") from None
    _check_memory(model_config, sampler_config)
    out, made = _out_dir(args)
    try:
        chainset = run_all(campaign, model_config, sampler_config)
    except BaseException:
        for directory in made:  # a failed fit leaves no empty directory behind
            try:
                directory.rmdir()
            except OSError:
                break
        raise
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
    elif worst_rhat > RHAT_WARN:
        warning = (f"split R-hat {worst_rhat:.4f} on {worst_name} exceeds "
                   f"{RHAT_WARN}; consider more iterations")
    else:
        return EXIT_OK
    print(f"warning: {warning}", file=sys.stderr)
    return EXIT_CONVERGENCE if args.strict else EXIT_OK


def _parse_epsilons(raw: str) -> list[float]:
    # every token is a number, an empty one too; reliability_curve checks the grid
    return [dataio._parse_token(float, tok, "--epsilon", f"threshold {tok!r}", "a number")
            for tok in raw.split(",")]


def cmd_reliability(args) -> int:
    from . import reliability

    chainset = dataio.read_draws(args.draws)
    try:
        curve = reliability.reliability_curve(chainset, _parse_epsilons(args.epsilon))
    except KeyError as exc:  # the file does not record remaining_size
        raise KeyError(f"{args.draws}: {exc.args[0]}") from None
    out, _ = _out_dir(args)
    dataio.write_reliability_curve(curve, out / "reliability.csv")
    print("epsilon  reliability")
    for epsilon, probability in curve:
        print(f"{epsilon!r:>7}  {probability:.7f}")  # as reliability.csv writes it
    print(f"curve: {out / 'reliability.csv'}")
    return EXIT_OK


def _trace_files(names: list[str], draws) -> dict[str, str]:
    """Each parameter's trace file, ``trace_<name>.csv`` with ``[`` mapped to ``_`` and
    ``]`` dropped (``ChainSet`` holds names of letters, digits, ``_``, ``[`` and ``]``
    only); refuses names that map to one file, before any is written."""
    files = {name: f"trace_{name.replace('[', '_').replace(']', '')}.csv" for name in names}
    uses = Counter(files.values())
    clashing = [name for name, file in files.items() if uses[file] > 1]
    if clashing:
        raise ValueError(f"{draws}: parameter names {', '.join(map(repr, clashing))} map to "
                         "one trace file name")
    return files


def cmd_diagnose(args) -> int:
    chainset = dataio.read_draws(args.draws)
    if chainset.n_chains < 2:
        raise ValueError(f"{args.draws}: need >=2 chains for convergence diagnostics")
    if chainset.kept_per_chain < 4:
        raise ValueError(f"{args.draws}: split R-hat needs at least 4 kept draws per chain, "
                         f"the file holds {chainset.kept_per_chain}")
    trace_files = _trace_files(chainset.names, args.draws)
    report = diagnostics.summarize(chainset)
    out, _ = _out_dir(args)
    print(f"{'parameter':<18} {'R-hat':>8} {'upper':>8} {'ESS':>12}")
    for name, summary in report.items():
        print(f"{name:<18} {summary.rhat:8.4f} {summary.rhat_upper:8.4f} {summary.ess:12.2f}")
        dataio.write_trace(diagnostics.trace_export(chainset, name), out / trace_files[name])
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
    except (ValueError, KeyError, OSError, RuntimeError, MemoryError) as exc:
        # str(KeyError) quotes its message; an OSError's args[0] is its errno
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)
        if isinstance(exc, MemoryError) and not message:  # as the interpreter raises it
            message = "out of memory"
        print(f"bugsize: error: {message}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    # A command runs once and exits, and CPython's finalisation then walks the
    # ~22,000 container objects that importing numpy and bugsize made in full
    # collections: 10-15 ms of a 0.1 s command on a 2-core VM.  Frozen, they
    # sit in the permanent generation, which no collection walks; a pooled fit
    # forks its workers after the freeze, the order gc.freeze's documentation
    # gives for fork().  main() leaves the collector alone for in-process callers.
    gc.freeze()
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
