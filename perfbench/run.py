#!/usr/bin/env python3
"""bugsize benchmark: the real command line, end to end, and a traced run.

    python3 perfbench/run.py --workload flight-fit --seed 1 --seconds 25 --trace 0

Run it from the root of a bugsize checkout (the directory holding
``src/bugsize``); nothing needs installing.  It drives ``python -m bugsize``
from this one process, one command at a time, each in its own child, so
import cost and memory are measured the way users pay them.  Commands are
repeated for ``--seconds`` and every timing is the median over repetitions.
Every output is checked, and the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics instead: it runs the pipeline once through the command
line, then serially inside this process, alternating untraced runs with
runs in which the names bugsize looks up at call time are wrapped in spans
(see ``tracer.py``).  Per-layer timings come from the traced runs; the gap
to the untraced runs is the tracing overhead.

Workloads (the "why" of each is in BENCHMARK.json):

- ``flight-fit``: ``fit`` on the bundled 35x8 flight-software campaign at
  the command's defaults (3 chains, ``max_bugs`` 400, serial) with only the
  iteration count changed, then ``reliability --epsilon 100,...,200``.
- ``hidden-wide``: ``simulate`` a 30x8 campaign with 400 true bugs, t in
  [0, 2000] and ``max_bugs`` 4000, then ``fit --threads 2``, ``diagnose``
  and ``reliability`` on it.  Most real bugs stay hidden.  The chains settle
  within about 20 sweeps, so the fit burns in 200 of its 1,200 sweeps, not
  half: the extra kept draws steady the ESS, which is noisy at this size.
- ``postprocess``: ``diagnose`` and ``reliability`` on a draws file that a
  real serial ``fit`` writes during set-up (3 chains x 3,000 kept draws,
  3.8 MB).

Set-up (input files, and the large fit for ``postprocess``) runs five
times; ``setup_s`` is its median.  Within a run the simulated campaign is
fixed by ``--seed`` and repetition k fits with seed ``1000 * seed + k``,
so ESS is averaged over several chains of the same input.  Output digests
(sha256 of draws.csv, report.json, reliability.csv, and of the trace files
and simulated campaign where a workload writes them) are kept in
``.perfbench/digests.json`` keyed by the hash of the program's and the
benchmark's sources; a later run of the same code and seed that writes
different bytes fails its check.

Metric naming: ``*_s`` is seconds per pipeline (summed over calls),
``*_us`` is microseconds per call (``sampler.sweep_us`` and
``sampler.run_chain_self_us``: per sweep), ``*_calls`` counts calls in one
pipeline.  Names ending in ``_computed`` are derived from array sizes and
file sizes, not measured.  Per-layer metrics of a layer the workload never
calls read 0.  ``sampler.pool_efficiency`` is serial ``run_all`` time over
2 x its time on a 2-worker pool, measured only on ``hidden-wide``, the one
workload whose fit uses the pool; with 3 chains its ceiling is 0.75.
``ok_frac`` is the share of commands and output checks that passed (the
complement of ``failed / attempted``).  On ``postprocess``, ``fit_s``,
``sweeps_per_s`` and ``ess_per_s`` describe the set-up fits.

``--size toy`` shrinks every workload to a few seconds for the smoke test
(``python3 -m pytest perfbench``).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from tracer import Tracer, write_spans  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
HARD_LIMIT_S = 170.0
SETUP_REPEATS = 5
CHAINS = 3
FLIGHT_EPSILONS = (100, 120, 140, 160, 180, 200)
HIDDEN_EPSILONS = (15_000, 20_000, 25_000, 30_000, 35_000)

SIZES = {
    "full": {
        "flight_iters": 2000,
        "hidden": {"missions": 30, "phases": 8, "true_bugs": 400, "max_bugs": 4000,
                   "t_max": 2000},
        "hidden_iters": 1200,
        "hidden_burn_in": 200,
        "post_iters": 3000,
    },
    "toy": {
        "flight_iters": 300,
        "hidden": {"missions": 10, "phases": 4, "true_bugs": 40, "max_bugs": 400,
                   "t_max": 2000},
        "hidden_iters": 300,
        "hidden_burn_in": 100,
        "post_iters": 300,
    },
}
FLIGHT_MAX_BUGS = 400  # the fit command's default

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "fit_s": "s",
    "post_s": "s",
    "sweeps_per_s": "1/s",
    "ess_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "1",
}

# layer metric -> unit; traced function spans are listed in WRAPPED below
PER_LAYER = {
    "sampler.update_inclusion_us": "us",
    "sampler.draw_inclusion_prob_us": "us",
    "sampler.update_sizes_us": "us",
    "sampler.update_mean_sizes_us": "us",
    "sampler.sweep_us": "us",
    "sampler.run_chain_self_us": "us",
    "sampler.updates_share": "1",
    "sampler.accept_size": "1",
    "sampler.accept_mean_size": "1",
    "sampler.pool_efficiency": "1",
    "sampler.candidates_per_sweep_computed": "count",
    "sampler.bytes_per_sweep_computed": "B",
    "model.nb_log_pmf_us": "us",
    "model.nb_log_pmf_calls": "count",
    "dataio.write_draws_s": "s",
    "dataio.write_report_s": "s",
    "dataio.read_draws_s": "s",
    "dataio.write_trace_s": "s",
    "dataio.draws_mb": "MB",
    "dataio.draws_lines_written_computed": "count",
    "dataio.draws_bytes_written_computed": "B",
    "dataio.draws_lines_read_computed": "count",
    "dataio.draws_bytes_read_computed": "B",
    "diagnostics.summarize_s": "s",
    "diagnostics.trace_export_s": "s",
    "diagnostics.split_rhat_s": "s",
    "diagnostics.effective_sample_size_s": "s",
    "diagnostics.import_s": "s",
    "reliability.reliability_curve_s": "s",
    "simulate.generate_campaign_s": "s",
    "datasets.flight_software_campaign_s": "s",
    "cli.import_s": "s",
    "cli.simulate_s": "s",
    "cli.fit_s": "s",
    "cli.diagnose_s": "s",
    "cli.reliability_s": "s",
    "cli.post_dataio_import_share": "1",
    "trace.overhead_frac": "1",
    "trace.spans": "count",
}

# (module, attribute the callers look up, span name, keep return value)
WRAPPED = [
    ("cli", "run_all", "sampler.run_all", False),
    ("sampler", "run_chain", "sampler.run_chain", False),
    ("sampler", "update_inclusion", "sampler.update_inclusion", False),
    ("sampler", "draw_inclusion_prob", "sampler.draw_inclusion_prob", False),
    ("sampler", "update_sizes", "sampler.update_sizes", True),
    ("sampler", "update_mean_sizes", "sampler.update_mean_sizes", True),
    ("sampler", "nb_log_pmf", "model.nb_log_pmf", False),
    ("dataio", "read_campaign", "dataio.read_campaign", False),
    ("dataio", "write_campaign", "dataio.write_campaign", False),
    ("dataio", "read_draws", "dataio.read_draws", False),
    ("dataio", "write_draws", "dataio.write_draws", False),
    ("dataio", "build_report", "dataio.build_report", False),
    ("dataio", "write_report", "dataio.write_report", False),
    ("dataio", "write_trace", "dataio.write_trace", False),
    ("dataio", "write_reliability_curve", "dataio.write_reliability_curve", False),
    ("diagnostics", "summarize", "diagnostics.summarize", False),
    ("diagnostics", "split_rhat", "diagnostics.split_rhat", False),
    ("diagnostics", "effective_sample_size", "diagnostics.effective_sample_size", False),
    ("diagnostics", "trace_export", "diagnostics.trace_export", False),
    ("reliability", "reliability_curve", "reliability.reliability_curve", False),
    ("simulate", "generate_campaign", "simulate.generate_campaign", False),
    ("datasets", "flight_software_campaign", "datasets.flight_software_campaign", False),
]
GIBBS_UPDATES = ("sampler.update_inclusion", "sampler.draw_inclusion_prob",
                 "sampler.update_sizes", "sampler.update_mean_sizes")

# bytes of state arrays each update reads or writes per candidate: include
# and detected are 1-byte bools, size and mean_size 8-byte numbers
# (inclusion: reads size/detected/include, writes include; sizes: reads
# mean/size/include/detected, writes size; size means: reads size/mean,
# writes mean; psi: reads include)
STATE_BYTES_PER_CANDIDATE = 11 + 26 + 24 + 1

WRITE_FLIGHT = (
    "import sys, bugsize.cli\n"
    "from bugsize.dataio import write_campaign\n"
    "from bugsize.datasets import flight_software_campaign\n"
    "write_campaign(flight_software_campaign(), sys.argv[1])\n"
)
IMPORT_ONLY = "import bugsize.cli\n"

START = time.perf_counter()


class Tally:
    """Commands and output checks attempted and failed in this run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAIL {name}: {detail}", file=sys.stderr)
        return ok


@dataclasses.dataclass
class Child:
    name: str
    wall_s: float
    rss_mb: float
    code: int


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(WORK / "tmp")
    env.pop("BUGSIZE_OUT_DIR", None)
    return env


def run_child(name: str, argv: list[str], log_stem: Path, tally: Tally) -> Child:
    """Run one child to completion; wall time and peak RSS from os.wait4."""
    timeout = max(1.0, HARD_LIMIT_S - (time.perf_counter() - START))
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            # reap anything the child left behind in its session
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    detail = Path(f"{log_stem}.err").read_text(errors="replace")[-400:]
    tally.record(f"{name} exits 0", code == 0, f"exit {code}: {detail}")
    return Child(name, wall, usage.ru_maxrss / 1024.0, code)


def bugsize_argv(args: list) -> list[str]:
    return [sys.executable, "-m", "bugsize", *map(str, args)]


def source_hash() -> str:
    """Hash of the program's and the benchmark's sources."""
    digest = hashlib.sha256()
    here = Path(__file__).resolve().parent
    for path in sorted((SRC / "bugsize").glob("*.py")) + sorted(here.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------- workloads


def pipeline(workload: str, size: dict, inputs: dict, out: Path, seed: int, rep: int,
             threads: int | None = None) -> list[tuple[str, list]]:
    """The CLI commands of one repetition, as (command, arguments)."""
    fit_seed = 1000 * seed + rep
    if workload == "flight-fit":
        return [
            ("fit", ["fit", inputs["campaign"], "--iters", size["flight_iters"],
                     "--seed", fit_seed, "--out", out]),
            ("reliability", ["reliability", out / "draws.csv", "--epsilon",
                             ",".join(map(str, FLIGHT_EPSILONS)), "--out", out]),
        ]
    if workload == "hidden-wide":
        h = size["hidden"]
        return [
            ("simulate", ["simulate", "--missions", h["missions"], "--phases", h["phases"],
                          "--true-bugs", h["true_bugs"], "--max-bugs", h["max_bugs"],
                          "--t-min", 0, "--t-max", h["t_max"], "--seed", seed, "--out", out]),
            ("fit", ["fit", out / "campaign.csv", "--iters", size["hidden_iters"],
                     "--burn-in", size["hidden_burn_in"], "--max-bugs", h["max_bugs"],
                     "--threads", threads or 2, "--seed", fit_seed, "--out", out]),
            ("diagnose", ["diagnose", out / "draws.csv", "--out", out]),
            ("reliability", ["reliability", out / "draws.csv", "--epsilon",
                             ",".join(map(str, HIDDEN_EPSILONS)), "--out", out]),
        ]
    return [
        ("diagnose", ["diagnose", inputs["draws"], "--out", out]),
        ("reliability", ["reliability", inputs["draws"], "--epsilon",
                         ",".join(map(str, FLIGHT_EPSILONS)), "--out", out]),
    ]


def fit_sweeps(workload: str, size: dict) -> int:
    key = {"flight-fit": "flight_iters", "hidden-wide": "hidden_iters"}.get(
        workload, "post_iters")
    return CHAINS * size[key]


def setup(workload: str, size: dict, seed: int, where: Path, tally: Tally) -> dict:
    """Make the workload's inputs; returns their paths and the set-up fit, if any."""
    where.mkdir(parents=True)
    campaign = where / "flight.csv"
    code = IMPORT_ONLY if workload == "hidden-wide" else WRITE_FLIGHT
    run_child("setup import", [sys.executable, "-c", code, campaign], where / "import", tally)
    inputs = {"campaign": campaign}
    if workload == "postprocess":
        fit = run_child("setup fit", bugsize_argv(
            ["fit", campaign, "--iters", size["post_iters"], "--burn-in", 0,
             "--seed", seed, "--out", where]), where / "fit", tally)
        inputs.update(draws=where / "draws.csv", report=where / "report.json", fit=fit)
    return inputs


def min_ess(report_path: Path) -> float:
    """Smallest ESS among the scalars in report.json; 0 if it holds none."""
    try:
        params = json.loads(report_path.read_text(encoding="utf-8"))["parameters"]
        return float(min(params[name]["ess"] for name in checks.SCALARS))
    except (OSError, ValueError, KeyError, TypeError):
        return 0.0


def output_paths(workload: str, inputs: dict, out: Path) -> dict:
    if workload == "postprocess":
        return {"draws": inputs["draws"], "report": inputs["report"],
                "curve": out / "reliability.csv"}
    return {"draws": out / "draws.csv", "report": out / "report.json",
            "curve": out / "reliability.csv"}


def check_outputs(workload: str, inputs: dict, out: Path, tally: Tally) -> None:
    paths = output_paths(workload, inputs, out)
    if workload == "flight-fit":
        tally.record("criterion 6 bands", *checks.flight_bands(paths["draws"]))
    if workload == "hidden-wide":
        tally.record("posterior covers true_bugs",
                     *checks.covers_truth(paths["draws"], out / "truth.json"))
    if workload != "flight-fit":
        tally.record("diagnose matches report.json",
                     *checks.diagnose_matches_report(out / "diagnose.out", paths["report"]))
        tally.record("trace files match draws",
                     *checks.traces_match_draws(out, paths["draws"]))
    epsilons = HIDDEN_EPSILONS if workload == "hidden-wide" else FLIGHT_EPSILONS
    tally.record("reliability.csv matches draws",
                 *checks.reliability_matches_draws(paths["curve"], paths["draws"], epsilons))


def digests(workload: str, inputs: dict, out: Path) -> dict:
    """sha256 of every output file, the trace files hashed together."""
    paths = output_paths(workload, inputs, out)
    files = {"draws.csv": paths["draws"], "report.json": paths["report"],
             "reliability.csv": paths["curve"]}
    if workload == "hidden-wide":
        files.update({name: out / name for name in ("campaign.csv", "truth.json")})
    found = {name: checks.sha256(path) if path.is_file() else None
             for name, path in files.items()}
    traces = sorted(out.glob("trace_*.csv"))
    if traces:
        found["trace_*.csv"] = hashlib.sha256(
            b"".join(path.name.encode() + path.read_bytes() for path in traces)).hexdigest()
    return found


class Ledger:
    """Output digests of earlier runs, keyed by source hash, workload and seed."""

    def __init__(self, path: Path):
        self.path = path
        self.entries = json.loads(path.read_text()) if path.is_file() else {}

    def check(self, key: str, found: dict, tally: Tally) -> None:
        known = self.entries.setdefault(key, found)
        tally.record("outputs reproduce earlier runs", known == found,
                     f"{key}: {found} != {known}")

    def save(self) -> None:
        self.path.write_text(json.dumps(self.entries, indent=1, sort_keys=True) + "\n")


def environment() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


# ---------------------------------------------------------------- end to end


def run_rep(workload, size, inputs, out: Path, seed, rep, tally) -> list[Child]:
    out.mkdir(parents=True)
    children = []
    for name, args in pipeline(workload, size, inputs, out, seed, rep):
        child = run_child(name, bugsize_argv(args), out / name, tally)
        children.append(child)
        if child.code != 0:
            break
    return children


def fit_row(fit: Child, report: Path, sweeps: int, tally: Tally) -> dict:
    ess = min_ess(report)
    tally.record("report.json carries a positive ESS", ess > 0, str(report))
    return {"fit_s": fit.wall_s, "sweeps_per_s": sweeps / fit.wall_s, "ess": ess}


def measure_end_to_end(workload, size, seed, seconds, wdir, tally, ledger, key):
    sweeps = fit_sweeps(workload, size)
    setups, rows, fit_rows = [], [], []
    for k in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = setup(workload, size, seed, wdir / f"setup{k}", tally)
        setups.append(time.perf_counter() - start)
        if workload == "postprocess" and inputs["fit"].code == 0:
            fit_rows.append(fit_row(inputs["fit"], inputs["report"], sweeps, tally))
            found = digests(workload, inputs, wdir / "no-curve")
            ledger.check(f"{key}:setup", found, tally)

    deadline = time.perf_counter() + seconds
    loop_times = []
    rep = 0
    while True:
        start = time.perf_counter()
        out = wdir / f"rep{rep}"
        children = run_rep(workload, size, inputs, out, seed, rep, tally)
        if all(c.code == 0 for c in children):
            check_outputs(workload, inputs, out, tally)
            found = digests(workload, inputs, out)
            ledger.check(f"{key}:{rep}", found, tally)
            if rep == 0:
                print(f"digests {workload} seed {seed}: {json.dumps(found)}")
            by_name = {c.name: c for c in children}
            if "fit" in by_name:
                fit_rows.append(fit_row(by_name["fit"], out / "report.json", sweeps, tally))
            rows.append({
                "wall_s": sum(c.wall_s for c in children),
                "post_s": sum(by_name[n].wall_s for n in ("diagnose", "reliability")
                              if n in by_name),
                "peak_rss_mb": max(c.rss_mb for c in children),
            })
            print(f"rep {rep}: " + json.dumps({c.name: round(c.wall_s, 4) for c in children}),
                  file=sys.stderr)
        shutil.rmtree(out)
        loop_times.append(time.perf_counter() - start)
        rep += 1
        now = time.perf_counter()
        # start another repetition while at least half of it fits
        if (now + statistics.median(loop_times) / 2 > deadline
                or now - START > HARD_LIMIT_S - 2 * max(loop_times)):
            break

    metrics = {"setup_s": statistics.median(setups)}
    for name in ("wall_s", "post_s", "peak_rss_mb"):
        if rows:
            metrics[name] = statistics.median(row[name] for row in rows)
    if fit_rows:
        for name in ("fit_s", "sweeps_per_s"):
            metrics[name] = statistics.median(row[name] for row in fit_rows)
        # ESS varies with the chain seed far more than fit time does, so it
        # is pooled over the run's fits rather than taken as a median
        metrics["ess_per_s"] = (sum(row["ess"] for row in fit_rows)
                                / sum(row["fit_s"] for row in fit_rows))
    metrics["ok_frac"] = 1.0 - tally.failed / max(tally.attempted, 1)
    return metrics


# ---------------------------------------------------------------- per layer


def import_times(wdir: Path, tally: Tally, repeats: int = 2) -> tuple[float, float]:
    """Cumulative import time of bugsize.cli and of bugsize.diagnostics (s)."""
    cli, diag = [], []
    for k in range(repeats):
        stem = wdir / f"importtime{k}"
        child = run_child("importtime", [sys.executable, "-X", "importtime", "-c",
                                         IMPORT_ONLY], stem, tally)
        if child.code != 0:
            continue
        rows = {}
        for line in Path(f"{stem}.err").read_text().splitlines():
            match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)$", line)
            if match and match.group(3).split(".")[0] == "bugsize":
                depth = len(match.group(2))
                name = match.group(3)
                rows[name] = (depth, int(match.group(1)) * 1e-6)
        if not tally.record("importtime lists bugsize.diagnostics",
                            "bugsize.diagnostics" in rows, str(stem)):
            continue
        # bugsize.cli and the package it pulls in, whichever prints outermost
        top = min(depth for depth, _ in rows.values())
        cli.append(sum(t for depth, t in rows.values() if depth == top))
        diag.append(rows["bugsize.diagnostics"][1])
    if not cli:
        return 0.0, 0.0
    return statistics.median(cli), statistics.median(diag)


class InProcess:
    """The same pipeline, serial, inside this process."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        import bugsize.cli
        import bugsize.dataio
        import bugsize.datasets
        import bugsize.diagnostics
        import bugsize.model
        import bugsize.reliability
        import bugsize.sampler
        import bugsize.simulate

        self.modules = {name: getattr(bugsize, name) for name in (
            "cli", "dataio", "datasets", "diagnostics", "model", "reliability",
            "sampler", "simulate")}

    def run(self, workload, size, inputs, out: Path, seed, rep, tally,
            tracer: Tracer | None) -> float:
        """Run the pipeline once; returns its wall time in seconds."""
        out.mkdir(parents=True)
        cli, dataio, datasets = (self.modules[n] for n in ("cli", "dataio", "datasets"))
        steps = pipeline(workload, size, inputs, out, seed, rep, threads=1)
        span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
        if tracer:
            for module, attr, name, keep in WRAPPED:
                tracer.wrap(self.modules[module], attr, name, keep)
        try:
            start = time.perf_counter()
            if workload != "hidden-wide":
                with span("cli.campaign"):
                    dataio.write_campaign(datasets.flight_software_campaign(),
                                          out / "flight.csv")
            for name, args in steps:
                sink = io.StringIO()
                with span(f"cli.{name}"), contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main([str(a) for a in args])
                (out / f"{name}.out").write_text(sink.getvalue())
                if not tally.record(f"in-process {name} returns 0", code == 0, str(code)):
                    break
            return time.perf_counter() - start
        finally:
            if tracer:
                tracer.restore()

    def pool_efficiency(self, campaign_csv: Path, size: dict, seed: int) -> float:
        """Serial run_all time over (workers x time with a 2-worker pool)."""
        dataio, sampler = self.modules["dataio"], self.modules["sampler"]
        campaign = dataio.read_campaign(campaign_csv)
        model = self.modules["model"].ModelConfig(max_bugs=size["hidden"]["max_bugs"])
        times = {}
        for workers in (1, 2):
            config = sampler.SamplerConfig(
                chains=CHAINS, iterations=size["hidden_iters"],
                burn_in=size["hidden_burn_in"], seed=1000 * seed, workers=workers)
            start = time.perf_counter()
            sampler.run_all(campaign, model, config)
            times[workers] = time.perf_counter() - start
        return times[1] / (min(2, CHAINS) * times[2])


def layer_metrics(summary: dict, results: dict, workload: str, size: dict, inputs: dict,
                  out: Path, spans: int) -> dict:
    def stat(name, field="total_s"):
        return summary.get(name, {}).get(field, 0.0)

    def per_call_us(name):
        calls = stat(name, "calls")
        return 1e6 * stat(name) / calls if calls else 0.0

    m = {}
    for name in GIBBS_UPDATES:
        m[f"{name}_us"] = per_call_us(name)
    sweeps = fit_sweeps(workload, size) if stat("sampler.run_chain", "calls") else 0
    chain_total = stat("sampler.run_chain")
    m["sampler.sweep_us"] = 1e6 * chain_total / sweeps if sweeps else 0.0
    m["sampler.run_chain_self_us"] = (
        1e6 * stat("sampler.run_chain", "self_s") / sweeps if sweeps else 0.0)
    m["sampler.updates_share"] = (
        sum(stat(n) for n in GIBBS_UPDATES) / chain_total if chain_total else 0.0)
    for key, name in (("accept_size", "sampler.update_sizes"),
                      ("accept_mean_size", "sampler.update_mean_sizes")):
        values = results.get(name, [])
        m[f"sampler.{key}"] = sum(values) / len(values) if values else 0.0
    if sweeps:
        hidden = workload == "hidden-wide"
        max_bugs = size["hidden"]["max_bugs"] if hidden else FLIGHT_MAX_BUGS
        campaign = (out / "campaign.csv" if hidden else inputs["campaign"]).read_text()
        detected = sum(int(row.rsplit(",", 1)[1]) for row in campaign.splitlines()[1:])
        m["sampler.candidates_per_sweep_computed"] = float(2 * max_bugs + max_bugs - detected)
        m["sampler.bytes_per_sweep_computed"] = float(STATE_BYTES_PER_CANDIDATE * max_bugs)
    else:
        m["sampler.candidates_per_sweep_computed"] = 0.0
        m["sampler.bytes_per_sweep_computed"] = 0.0
    m["model.nb_log_pmf_us"] = per_call_us("model.nb_log_pmf")
    m["model.nb_log_pmf_calls"] = float(stat("model.nb_log_pmf", "calls"))
    for name in ("dataio.write_draws", "dataio.write_report", "dataio.read_draws",
                 "dataio.write_trace", "diagnostics.summarize", "diagnostics.trace_export",
                 "diagnostics.split_rhat", "diagnostics.effective_sample_size",
                 "reliability.reliability_curve", "simulate.generate_campaign",
                 "datasets.flight_software_campaign"):
        m[f"{name}_s"] = stat(name)
    draws = output_paths(workload, inputs, out)["draws"]
    text = draws.read_bytes()
    lines, nbytes = float(text.count(b"\n")), float(len(text))
    m["dataio.draws_mb"] = nbytes / 1e6
    writes = stat("dataio.write_draws", "calls")
    reads = stat("dataio.read_draws", "calls")
    m["dataio.draws_lines_written_computed"] = lines * writes
    m["dataio.draws_bytes_written_computed"] = nbytes * writes
    m["dataio.draws_lines_read_computed"] = lines * reads
    m["dataio.draws_bytes_read_computed"] = nbytes * reads
    m["post_dataio_s"] = sum(stat(n) for n in (
        "dataio.read_draws", "dataio.write_trace", "dataio.write_reliability_curve"))
    m["post_s"] = stat("cli.diagnose") + stat("cli.reliability")
    m["trace.spans"] = float(spans)
    return m


def measure_per_layer(workload, size, seed, seconds, wdir, tally, ledger, key):
    inputs = setup(workload, size, seed, wdir / "setup0", tally)
    deadline = time.perf_counter() + seconds
    cli_import, diag_import = import_times(wdir, tally)

    cli_out = wdir / "rep0"
    children = run_rep(workload, size, inputs, cli_out, seed, 0, tally)
    ran = {c.name: c.wall_s for c in children}
    if not all(c.code == 0 for c in children):
        return None
    check_outputs(workload, inputs, cli_out, tally)
    cli_digests = digests(workload, inputs, cli_out)
    ledger.check(f"{key}:0", cli_digests, tally)

    inproc = InProcess()
    # the first in-process run pays one-off costs; it is not counted
    inproc.run(workload, size, inputs, wdir / "warmup", seed, 0, tally, None)
    untraced, traced, tracers = [], [], []
    while True:
        run = len(traced)
        tracer = Tracer()
        order = [(wdir / f"plain{run}", None), (wdir / f"traced{run}", tracer)]
        for where, spans in order[:: -1 if run % 2 else 1]:
            wall = inproc.run(workload, size, inputs, where, seed, 0, tally, spans)
            (traced if spans else untraced).append(wall)
            tally.record("in-process outputs equal the CLI's",
                         digests(workload, inputs, where) == cli_digests,
                         f"{where.name} differs from rep0")
        tracers.append((tracer, order[1][0]))
        lap = untraced[-1] + traced[-1]
        if time.perf_counter() + lap > deadline or time.perf_counter() - START > 120:
            break

    rows = []
    for tracer, out in tracers:
        rows.append(layer_metrics(tracer.summary(), tracer.results, workload, size, inputs,
                                  out, len(tracer.spans)))
    write_spans([tracer for tracer, _ in tracers], wdir / "spans.csv")

    m = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    # each post-processing command pays one import in the real command line
    imports = cli_import * sum(n in ran for n in ("diagnose", "reliability"))
    m["cli.post_dataio_import_share"] = (
        (m.pop("post_dataio_s") + imports) / (m.pop("post_s") + imports))
    m["cli.import_s"] = cli_import
    m["diagnostics.import_s"] = diag_import
    for name in ("simulate", "fit", "diagnose", "reliability"):
        m[f"cli.{name}_s"] = ran.get(name, 0.0)
    m["trace.overhead_frac"] = statistics.median(t / u for t, u in zip(traced, untraced)) - 1
    m["sampler.pool_efficiency"] = (
        inproc.pool_efficiency(cli_out / "campaign.csv", size, seed)
        if workload == "hidden-wide" else 0.0)
    return m


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["flight-fit", "hidden-wide", "postprocess"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "bugsize" / "cli.py").is_file():
        print(f"perfbench: no bugsize sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2

    size = SIZES[args.size]
    wdir = WORK / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(wdir, ignore_errors=True)
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    env = environment()
    (WORK / "env.json").write_text(json.dumps(env, indent=1) + "\n")
    print(f"env {json.dumps(env)}")

    tally = Tally()
    ledger = Ledger(WORK / "digests.json")
    key = f"{source_hash()}:{args.workload}:{args.size}:{args.seed}"
    if args.trace:
        metrics = measure_per_layer(args.workload, size, args.seed, args.seconds, wdir,
                                    tally, ledger, key)
        units = PER_LAYER
    else:
        metrics = measure_end_to_end(args.workload, size, args.seed, args.seconds, wdir,
                                     tally, ledger, key)
        units = END_TO_END
    ledger.save()
    metrics = metrics or {}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
