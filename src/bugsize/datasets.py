"""Bundled campaigns for demos and verification.

The flight-software campaign is a synthetic stand-in for a multi-mission
flight-control testing log: 35 missions, 8 phases (module testing counted
as phase 1, integration phases 2..8), 61 detected bugs concentrated in
early phases of early missions.  The real log it is shaped after is not
redistributable, so only its published sample cells are reproduced
verbatim; everything else is generated deterministically.
"""

from __future__ import annotations

import numpy as np

from .model import TestCampaign

__all__ = ["flight_software_campaign"]

_MISSIONS = 35
_PHASES = 8
_DETECTED_TOTAL = 61


def flight_software_campaign() -> TestCampaign:
    """Deterministic 35-mission, 8-phase campaign with 61 detected bugs.

    Anchored to the published sample cells; remaining test-case counts are
    drawn once from a fixed generator, with integration phases ramping up
    to a 175-case regression cell.  Detections taper off across missions,
    almost all of them in module testing.
    """
    rng = np.random.default_rng(np.random.SeedSequence(20240829))

    test_cases = np.zeros((_MISSIONS, _PHASES), dtype=np.int64)
    test_cases[:, 0] = rng.integers(40, 81, size=_MISSIONS)
    for phase in range(1, _PHASES):
        test_cases[:, phase] = rng.integers(5, 71, size=_MISSIONS)
    # heavier integration sweeps on a few late missions
    heavy = rng.choice(_MISSIONS, size=4, replace=False)
    test_cases[heavy, 4] = rng.integers(120, 160, size=4)
    test_cases[heavy[0], 5] = 175
    # published anchors
    test_cases[0, 0], test_cases[0, 1], test_cases[0, 7] = 61, 10, 38
    test_cases[1, 0], test_cases[1, 1], test_cases[1, 7] = 59, 10, 65

    bugs = np.zeros((_MISSIONS, _PHASES), dtype=np.int64)
    bugs[0, 0] = 3
    bugs[1, 0] = 9
    # the remaining 49 detections: early-mission module testing dominates,
    # with a thin tail into the first integration phases
    phase1 = [6, 5, 4, 4, 3, 3, 3, 2, 2, 2, 1, 1, 1, 1, 1]
    for j, count in enumerate(phase1, start=2):
        bugs[j, 0] = count
    bugs[2, 1] = 2
    bugs[4, 1] = 1
    bugs[3, 2] = 1
    bugs[6, 2] = 1
    bugs[9, 3] = 1
    bugs[12, 1] = 1
    bugs[15, 2] = 1
    bugs[20, 1] = 1
    bugs[26, 3] = 1
    assert int(bugs.sum()) == _DETECTED_TOTAL
    return TestCampaign(test_cases=test_cases, bugs_detected=bugs)
