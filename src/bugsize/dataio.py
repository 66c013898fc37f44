"""File formats: campaign CSV, draws CSV, trace CSV, curve CSV, report JSON.

Everything is UTF-8 with LF line endings and locale-independent number
formatting.  Floats are written with ``repr`` so round-trips are lossless.
Draw files carry a version stamp that readers refuse to ignore.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from .diagnostics import CREDIBLE_MASS
from .model import TestCampaign
from .sampler import ChainDraws, ChainSet

__all__ = [
    "read_campaign",
    "write_campaign",
    "write_draws",
    "read_draws",
    "build_report",
    "write_report",
    "write_trace",
    "write_reliability_curve",
]

CAMPAIGN_FIELDS = ["mission", "phase", "test_cases", "bugs_detected"]
DRAWS_STAMP = "# bugsize-draws-v1"
META_FIELDS = ("chains", "iterations", "burn_in", "thin", "base_seed")
REPORT_FORMAT = "bugsize-report-v2"
TRUTH_FORMAT = "bugsize-truth-v1"


def read_campaign(path) -> TestCampaign:
    """Read a campaign from long-form CSV.

    Expects a ``mission,phase,test_cases,bugs_detected`` header and one row
    per (mission, phase) cell.  Mission order follows first appearance;
    phases are sorted numerically.  Every mission must cover the same phase
    set, counts must be non-negative integers, and duplicate cells are
    rejected.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError(f"{path}: no rows")
    if [c.strip() for c in rows[0]] != CAMPAIGN_FIELDS:
        raise ValueError(
            f"{path}: expected header {','.join(CAMPAIGN_FIELDS)!r}, got {','.join(rows[0])!r}"
        )
    if len(rows) == 1:
        raise ValueError(f"{path}: no rows")

    cells: dict[tuple[str, int], tuple[int, int]] = {}
    missions: list[str] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 4:
            raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
        mission = row[0].strip()
        try:
            phase = int(row[1])
            t = int(row[2])
            y = int(row[3])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: counts must be integers") from None
        if t < 0 or y < 0:
            raise ValueError(f"{path}:{lineno}: negative count for ({mission}, {phase})")
        key = (mission, phase)
        if key in cells:
            raise ValueError(f"{path}: duplicate cell ({mission}, {phase})")
        if mission not in missions:
            missions.append(mission)
        cells[key] = (t, y)

    phase_values = sorted({phase for _, phase in cells})
    for mission in missions:
        for phase in phase_values:
            if (mission, phase) not in cells:
                raise ValueError(f"{path}: missing cell ({mission}, {phase})")

    t_matrix = np.empty((len(missions), len(phase_values)), dtype=np.int64)
    y_matrix = np.empty_like(t_matrix)
    for j, mission in enumerate(missions):
        for k, phase in enumerate(phase_values):
            t_matrix[j, k], y_matrix[j, k] = cells[(mission, phase)]
    return TestCampaign(test_cases=t_matrix, bugs_detected=y_matrix)


def write_campaign(campaign: TestCampaign, path) -> None:
    """Write a campaign as long-form CSV (missions M1, M2, ...; phases from 1)."""
    lines = [",".join(CAMPAIGN_FIELDS)]
    for j in range(campaign.missions):
        for k in range(campaign.phases):
            lines.append(
                f"M{j + 1},{k + 1},{campaign.test_cases[j, k]},{campaign.bugs_detected[j, k]}"
            )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_draws(chainset: ChainSet, path) -> None:
    """Write kept draws as stamped CSV.

    Rows are ``chain,iteration,parameter,value`` ordered by chain, then
    parameter, then iteration.  Chain seeds and acceptance rates ride along
    as comment lines.
    """
    lines = [DRAWS_STAMP]
    lines.append(
        f"# meta chains={chainset.n_chains} iterations={chainset.iterations} "
        f"burn_in={chainset.burn_in} thin={chainset.thin} base_seed={chainset.base_seed}"
    )
    for chain, seed_key in zip(chainset.chains, chainset.seed_keys()):
        acc = " ".join(f"{k}={repr(float(v))}" for k, v in chain.acceptance.items())
        lines.append(f"# chain {chain.chain} seed={seed_key} acceptance {acc}".rstrip())
    lines.append("chain,iteration,parameter,value")
    for chain in chainset.chains:
        heads = [f"{chain.chain},{it}," for it in chainset.kept_iterations]
        for name, values in chain.draws.items():
            # Python floats, so repr writes the shortest round-tripping digits
            values = np.asarray(values, dtype=float).tolist()
            lines.extend([f"{head}{name},{v!r}" for head, v in zip(heads, values)])
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_draws(path) -> ChainSet:
    """Read a stamped draws CSV back into a chain set.

    Rejects files whose version stamp does not match what this reader
    understands, and files without a complete ``# meta`` line.  Every chain
    that line counts must hold draws of the same parameters, each at exactly
    the kept iterations ``range(burn_in, iterations, thin)`` it gives.  A
    chain's ``seed=`` token is skipped: the seed key follows from the base
    seed and the chain id.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    stamp = lines[0].strip() if lines else "<empty>"
    if stamp != DRAWS_STAMP:
        raise ValueError(f"{path}: version stamp {stamp!r} does not match {DRAWS_STAMP!r}")
    meta = {}
    chain_acceptance: dict[int, dict[str, float]] = {}
    header_at = None
    for idx, line in enumerate(lines[1:], start=1):
        where = f"{path}:{idx + 1}"
        if line.startswith("# meta "):
            for token in line[len("# meta ") :].split():
                key, _, value = token.partition("=")
                meta[key] = _parse_token(int, value, where, f"meta field {token!r}", "an integer")
        elif line.startswith("# chain "):
            tokens = line[len("# chain ") :].split()
            if not tokens:
                raise ValueError(f"{where}: chain line names no chain")
            chain_id = _parse_token(int, tokens[0], where, f"chain id {tokens[0]!r}", "an integer")
            acceptance = chain_acceptance[chain_id] = {}
            for token in tokens[1:]:
                if "=" in token and not token.startswith("seed="):
                    k, _, v = token.partition("=")
                    acceptance[k] = _parse_token(
                        float, v, where, f"acceptance {token!r}", "a number"
                    )
        elif line.startswith("#"):
            continue
        else:
            header_at = idx
            break
    if header_at is None or lines[header_at] != "chain,iteration,parameter,value":
        raise ValueError(f"{path}: missing draw header row")
    missing = [key for key in META_FIELDS if key not in meta]
    if missing:
        raise ValueError(f"{path}: no '# meta' line gives {', '.join(missing)}")
    if meta["thin"] < 1:
        raise ValueError(f"{path}: meta thin must be >= 1, got {meta['thin']}")
    kept = range(meta["burn_in"], meta["iterations"], meta["thin"])
    grid = list(kept)

    # chain id -> parameter -> (iterations, values), in order of first appearance
    per_chain: dict[int, dict[str, tuple[list[int], list[float]]]] = {}
    run_chain = run_name = None
    # one try around the whole loop: a well-formed file pays nothing per row
    try:
        for lineno, line in enumerate(lines[header_at + 1 :], start=header_at + 2):
            if not line:
                continue
            chain_s, it_s, name, value_s = line.split(",", 3)
            # rows come in runs sharing (chain, parameter); look the run up once
            if name != run_name or chain_s != run_chain:
                iters, values = per_chain.setdefault(int(chain_s), {}).setdefault(
                    name, ([], [])
                )
                run_chain, run_name = chain_s, name
            values.append(float(value_s))
            iters.append(int(it_s))
    except ValueError:
        fields = line.count(",") + 1
        if fields < 4:
            raise ValueError(
                f"{path}:{lineno}: expected 4 fields (chain,iteration,parameter,value), "
                f"got {fields}"
            ) from None
        raise ValueError(
            f"{path}:{lineno}: chain and iteration must be integers and value a number, "
            f"got {line!r}"
        ) from None

    if len(per_chain) != meta["chains"]:
        raise ValueError(f"{path}: holds draws of {len(per_chain)} chains, "
                         f"its meta line counts {meta['chains']}")
    names = dict.fromkeys(name for columns in per_chain.values() for name in columns)
    chains = []
    for chain_id in sorted(per_chain):
        columns = per_chain[chain_id]
        for name in names:
            if name not in columns:
                raise ValueError(f"{path}: chain {chain_id} has no draws of {name!r}")
            iters = columns[name][0]
            if iters != grid:
                raise ValueError(f"{path}: chain {chain_id}'s {len(iters)} draws of {name!r} are "
                                 f"not at the meta line's {len(grid)} iterations {kept!r}")
        draws = {name: np.array(vals) for name, (_, vals) in columns.items()}
        chains.append(ChainDraws(chain_id, draws, chain_acceptance.get(chain_id, {})))
    return ChainSet(
        chains=chains,
        base_seed=meta["base_seed"],
        iterations=meta["iterations"],
        burn_in=meta["burn_in"],
        thin=meta["thin"],
    )


def _parse_token(kind, text: str, where: str, what: str, expected: str):
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{where}: {what} must be {expected}") from None


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if math.isfinite(v) else None
    return value


def build_report(report, chainset: ChainSet, model_config) -> dict:
    """Assemble the JSON report document.

    Carries per-chain and pooled summaries, convergence diagnostics, the
    acceptance rates and seeds of every chain, and an echo of the model
    config and of the chain set's run settings.
    """
    return {
        "format": REPORT_FORMAT,
        "config": {
            "model": dataclasses.asdict(model_config),
            "sampler": {
                "chains": chainset.n_chains,
                "iterations": chainset.iterations,
                "burn_in": chainset.burn_in,
                "thin": chainset.thin,
                "seed": chainset.base_seed,
            },
        },
        "seeds": {
            "base": chainset.base_seed,
            "chains": chainset.seed_keys(),
        },
        "acceptance": {str(c.chain): dict(c.acceptance) for c in chainset.chains},
        "kept_per_chain": chainset.kept_per_chain,
        "credible_mass": CREDIBLE_MASS,
        "parameters": {
            name: {
                "chain_means": list(s.chain_means),
                "chain_sds": list(s.chain_sds),
                "chain_cvs": list(s.chain_cvs),
                "pooled_mean": s.pooled_mean,
                "ci": [s.ci_lower, s.ci_upper],
                "rhat": s.rhat,
                "rhat_upper": s.rhat_upper,
                "ess": s.ess,
            }
            for name, s in report.parameters.items()
        },
    }


def write_report(doc: dict, path) -> None:
    """Write a report document as deterministic, sorted-key JSON."""
    if "format" not in doc:
        raise ValueError("report document must carry a format stamp")
    text = json.dumps(_jsonable(doc), indent=2, sort_keys=True)
    Path(path).write_text(text + "\n", encoding="utf-8", newline="\n")


def write_trace(records, path) -> None:
    """Write (chain, iteration, value) trace records as CSV."""
    lines = ["chain,iteration,value"]
    for chain, iteration, value in records:
        lines.append(f"{chain},{iteration},{repr(float(value))}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_reliability_curve(curve, path) -> None:
    """Write (threshold, probability) pairs as CSV."""
    lines = ["epsilon,probability"]
    for epsilon, probability in curve:
        lines.append(f"{repr(float(epsilon))},{repr(float(probability))}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
