"""File formats: campaign CSV, draws CSV, trace CSV, curve CSV, report JSON.

Everything is UTF-8 with LF line endings and locale-independent number
formatting.  Floats are written with ``repr`` so round-trips are lossless.
Draw files carry a version stamp that readers refuse to ignore.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

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
    extra = len(cells) - len(missions) * len(phase_values)
    if extra:
        raise ValueError(f"{path}: ragged phase structure across missions")

    t_matrix = np.empty((len(missions), len(phase_values)), dtype=np.int64)
    y_matrix = np.empty_like(t_matrix)
    for j, mission in enumerate(missions):
        for k, phase in enumerate(phase_values):
            t_matrix[j, k], y_matrix[j, k] = cells[(mission, phase)]
    return TestCampaign(test_cases=t_matrix, bugs_detected=y_matrix)


def write_campaign(campaign: TestCampaign, path, mission_labels=None) -> None:
    """Write a campaign as long-form CSV (phases numbered from 1)."""
    if mission_labels is None:
        mission_labels = [f"M{j + 1}" for j in range(campaign.missions)]
    if len(mission_labels) != campaign.missions:
        raise ValueError("one mission label per mission required")
    lines = [",".join(CAMPAIGN_FIELDS)]
    for j, label in enumerate(mission_labels):
        for k in range(campaign.phases):
            lines.append(
                f"{label},{k + 1},{campaign.test_cases[j, k]},{campaign.bugs_detected[j, k]}"
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
    for chain in chainset.chains:
        acc = " ".join(f"{k}={repr(v)}" for k, v in chain.acceptance.items())
        lines.append(f"# chain {chain.chain} seed={chain.seed_key} acceptance {acc}".rstrip())
    lines.append("chain,iteration,parameter,value")
    for chain in chainset.chains:
        for name, values in chain.draws.items():
            for it, value in zip(chain.iterations, values):
                lines.append(f"{chain.chain},{it},{name},{repr(float(value))}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_draws(path) -> ChainSet:
    """Read a stamped draws CSV back into a chain set.

    Rejects files whose version stamp does not match what this reader
    understands, and files whose chains do not all hold the same number of
    draws of the same parameters.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    stamp = lines[0].strip() if lines else "<empty>"
    if stamp != DRAWS_STAMP:
        raise ValueError(f"{path}: version stamp {stamp!r} does not match {DRAWS_STAMP!r}")
    meta = {}
    chain_meta: dict[int, dict] = {}
    header_at = None
    for idx, line in enumerate(lines[1:], start=1):
        if line.startswith("# meta "):
            for token in line[len("# meta ") :].split():
                key, _, value = token.partition("=")
                meta[key] = int(value)
        elif line.startswith("# chain "):
            tokens = line[len("# chain ") :].split()
            chain_id = int(tokens[0])
            seed_key = ""
            acceptance = {}
            for token in tokens[1:]:
                if token.startswith("seed="):
                    seed_key = token[len("seed=") :]
                elif token == "acceptance":
                    continue
                elif "=" in token:
                    k, _, v = token.partition("=")
                    acceptance[k] = float(v)
            chain_meta[chain_id] = {"seed_key": seed_key, "acceptance": acceptance}
        elif line.startswith("#"):
            continue
        else:
            header_at = idx
            break
    if header_at is None or lines[header_at] != "chain,iteration,parameter,value":
        raise ValueError(f"{path}: missing draw header row")

    per_chain: dict[int, dict[str, list[float]]] = {}
    per_chain_iters: dict[int, dict[str, list[int]]] = {}
    # one try around the whole loop: a well-formed file pays nothing per row
    try:
        for lineno, line in enumerate(lines[header_at + 1 :], start=header_at + 2):
            if not line:
                continue
            chain_s, it_s, name, value_s = line.split(",", 3)
            chain_id = int(chain_s)
            per_chain.setdefault(chain_id, {}).setdefault(name, []).append(float(value_s))
            per_chain_iters.setdefault(chain_id, {}).setdefault(name, []).append(int(it_s))
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

    chains = []
    for chain_id in sorted(per_chain):
        draws = {name: np.array(vals) for name, vals in per_chain[chain_id].items()}
        iter_lists = per_chain_iters[chain_id]
        first = next(iter(iter_lists.values()))
        for name, iters in iter_lists.items():
            if iters != first:
                raise ValueError(f"{path}: chain {chain_id} iteration grids disagree")
        info = chain_meta.get(chain_id, {"seed_key": "", "acceptance": {}})
        chains.append(
            ChainDraws(
                chain=chain_id,
                seed_key=info["seed_key"],
                iterations=np.array(first, dtype=np.int64),
                draws=draws,
                acceptance=info["acceptance"],
            )
        )
    names = dict.fromkeys(name for chain in chains for name in chain.draws)
    for chain in chains:
        for name in names:
            if name not in chain.draws:
                raise ValueError(f"{path}: chain {chain.chain} has no draws of {name!r}")
            have, want = chain.draws[name].size, chains[0].draws[name].size
            if have != want:
                raise ValueError(f"{path}: chain {chain.chain} has {have} draws of {name!r}, "
                                 f"chain {chains[0].chain} has {want}")
    return ChainSet(
        chains=chains,
        base_seed=meta.get("base_seed", 0),
        iterations=meta.get("iterations", 0),
        burn_in=meta.get("burn_in", 0),
        thin=meta.get("thin", 1),
    )


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


def build_report(
    report,
    chainset: ChainSet,
    model_config,
    sampler_config,
    reliability=None,
) -> dict:
    """Assemble the JSON report document.

    Carries per-chain and pooled summaries, convergence diagnostics, the
    acceptance rates and seeds of every chain, an echo of both configs, and
    (optionally) a reliability block with pooled and per-chain curves.
    """
    doc = {
        "format": REPORT_FORMAT,
        "config": {
            "model": {
                "max_bugs": model_config.max_bugs,
                "size_exponent": model_config.size_exponent,
                "mean_size_shape": model_config.mean_size_shape,
                "mean_size_rate": model_config.mean_size_rate,
                "dispersion": model_config.dispersion,
            },
            "sampler": {
                "chains": sampler_config.chains,
                "iterations": sampler_config.iterations,
                "burn_in": sampler_config.effective_burn_in,
                "thin": sampler_config.thin,
                "seed": sampler_config.seed,
            },
        },
        "seeds": {
            "base": chainset.base_seed,
            "chains": [c.seed_key for c in chainset.chains],
        },
        "acceptance": {str(c.chain): dict(c.acceptance) for c in chainset.chains},
        "kept_per_chain": chainset.kept_per_chain,
        "credible_mass": report.credible_mass,
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
    if reliability is not None:
        doc["reliability"] = reliability
    return doc


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
