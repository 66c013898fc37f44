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
from .sampler import ChainSet

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
DRAWS_HEADER = "chain,iteration,parameter,value"
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
    _write_lines(path, lines)


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
    for c, (acceptance, seed_key) in enumerate(zip(chainset.acceptance, chainset.seed_keys())):
        acc = " ".join(f"{k}={repr(float(v))}" for k, v in acceptance.items())
        lines.append(f"# chain {c} seed={seed_key} acceptance {acc}".rstrip())
    lines.append(DRAWS_HEADER)
    for c, table in enumerate(chainset.draws):
        heads = [f"{c},{it}," for it in chainset.kept_iterations]
        for name, values in zip(chainset.names, table):
            # tolist gives Python floats, so repr writes the shortest round-tripping digits
            lines.extend([f"{head}{name},{v!r}" for head, v in zip(heads, values.tolist())])
    _write_lines(path, lines)


def read_draws(path) -> ChainSet:
    """Read a stamped draws CSV back into a chain set.

    Rejects files whose version stamp does not match what this reader
    understands, and files without a complete ``# meta`` line.  The
    ``# chain`` lines must name chains ``0..chains-1`` in order.  Rows must
    come in the order ``write_draws`` gives them: chain ``0..chains-1``,
    then parameter (chain 0's blocks name the parameters), then the kept
    iterations ``range(burn_in, iterations, thin)`` of the meta line.  A
    chain's ``seed=`` token is skipped: the seed key follows from the base
    seed and the chain id.  Every number must read as the writer writes it:
    finite, with no ``_`` digit grouping.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    stamp = lines[0].strip() if lines else "<empty>"
    if stamp != DRAWS_STAMP:
        raise ValueError(f"{path}: version stamp {stamp!r} does not match {DRAWS_STAMP!r}")
    meta = {}
    acceptance: list[dict[str, float]] = []
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
            if chain_id != len(acceptance):
                raise ValueError(f"{where}: expected '# chain {len(acceptance)}', "
                                 f"got chain {chain_id}")
            acceptance.append({})
            for token in tokens[1:]:
                if "=" in token and not token.startswith("seed="):
                    k, _, v = token.partition("=")
                    acceptance[-1][k] = _parse_token(
                        float, v, where, f"acceptance {token!r}", "a number"
                    )
        elif line.startswith("#"):
            continue
        else:
            header_at = idx
            break
    if header_at is None or lines[header_at] != DRAWS_HEADER:
        raise ValueError(f"{path}: missing draw header row")
    missing = [key for key in META_FIELDS if key not in meta]
    if missing:
        raise ValueError(f"{path}: no '# meta' line gives {', '.join(missing)}")
    if meta["thin"] < 1:
        raise ValueError(f"{path}: meta thin must be >= 1, got {meta['thin']}")
    kept = range(meta["burn_in"], meta["iterations"], meta["thin"])
    if not kept:
        raise ValueError(f"{path}: the meta line keeps no iterations: {kept!r}")
    if len(acceptance) != meta["chains"]:
        raise ValueError(f"{path}: has {len(acceptance)} '# chain' lines, "
                         f"its meta line counts {meta['chains']} chains")

    while not lines[-1]:  # trailing blank lines are not rows
        lines.pop()
    start = header_at + 1
    # one block of len(kept) rows per parameter; chain 0's blocks name them
    head = f"0,{kept.start},"
    names = []
    for row in lines[start :: len(kept)]:
        if not row.startswith(head):
            break
        names.append(row[len(head) :].partition(",")[0])
    if acceptance and not names:
        _unexpected(path, lines, start, f"a row starting {head!r}")
    draws = np.empty((len(acceptance), len(names), len(kept)))
    for c in range(len(acceptance)):
        its = [f"{c},{it}," for it in kept]
        for p, name in enumerate(names):
            at = start + (c * len(names) + p) * len(kept)
            draws[c, p] = _block_values(path, lines, at, [f"{h}{name}," for h in its])
    if len(lines) > start + draws.size:
        _unexpected(path, lines, start + draws.size, "the end of the draws")
    try:
        return ChainSet(names=names, draws=draws, acceptance=acceptance,
                        base_seed=meta["base_seed"], iterations=meta["iterations"],
                        burn_in=meta["burn_in"], thin=meta["thin"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _block_values(path, lines: list[str], at: int, heads: list[str]) -> np.ndarray:
    """Values of the rows from ``lines[at]`` on, each its head then a finite number."""
    block = lines[at : at + len(heads)]
    if len(block) == len(heads) and all(map(str.startswith, block, heads)):
        texts = list(map(str.removeprefix, block, heads))
        try:
            values = np.array(list(map(float, texts)))
        except ValueError:
            pass
        else:
            if np.isfinite(values).all() and "_" not in "".join(texts):
                return values
    # name the first row at fault
    for i, head in enumerate(heads, start=at):
        if i >= len(lines) or not lines[i].startswith(head):
            _unexpected(path, lines, i, f"a row starting {head!r}")
        _parse_token(float, lines[i][len(head) :], f"{path}:{i + 1}",
                     f"the value of row {lines[i]!r}", "a number")


def _unexpected(path, lines: list[str], i: int, expected: str):
    got = repr(lines[i]) if i < len(lines) else "the end of the file"
    raise ValueError(f"{path}:{i + 1}: expected {expected}, got {got}")


def _parse_token(kind, text: str, where: str, what: str, expected: str):
    """``kind(text)`` for a token as the writer writes it: finite, no ``_`` digit grouping."""
    try:
        value = kind(text)
    except ValueError:
        value = None
    if value is None or "_" in text or not math.isfinite(value):
        raise ValueError(f"{where}: {what} must be {expected}")
    return value


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


def build_report(report: dict, chainset: ChainSet, model_config) -> dict:
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
        "acceptance": {str(c): dict(acc) for c, acc in enumerate(chainset.acceptance)},
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
            for name, s in report.items()
        },
    }


def write_report(doc: dict, path) -> None:
    """Write a report document as deterministic, sorted-key JSON."""
    if "format" not in doc:
        raise ValueError("report document must carry a format stamp")
    _write_lines(path, [json.dumps(_jsonable(doc), indent=2, sort_keys=True)])


def write_trace(records, path) -> None:
    """Write (chain, iteration, value) trace records as CSV."""
    lines = ["chain,iteration,value"]
    for chain, iteration, value in records:
        lines.append(f"{chain},{iteration},{repr(float(value))}")
    _write_lines(path, lines)


def write_reliability_curve(curve, path) -> None:
    """Write (threshold, probability) pairs as CSV."""
    lines = ["epsilon,probability"]
    for epsilon, probability in curve:
        lines.append(f"{repr(float(epsilon))},{repr(float(probability))}")
    _write_lines(path, lines)


def _write_lines(path, lines: list[str]) -> None:
    """Write ``lines`` as UTF-8 text, each ended by an LF."""
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
