"""Bundled campaigns for demos and verification.

The flight-software campaign is a synthetic stand-in for a multi-mission
flight-control testing log: 35 missions, 8 phases (module testing counted
as phase 1, integration phases 2..8), 61 detected bugs concentrated in
early phases of early missions.  The real log it is shaped after is not
redistributable, so only its published sample cells are reproduced
verbatim; the rest are counts drawn once and stored here as data.
"""

from __future__ import annotations

from .model import TestCampaign

__all__ = ["flight_software_campaign"]

# test cases run per mission (M1..M35, two a line) and phase (1..8)
_TEST_CASES = (
    (61, 10, 16, 18, 61, 35, 49, 38), (59, 10, 13, 55, 26, 43, 8, 65),
    (50, 36, 43, 70, 19, 5, 50, 10), (51, 69, 35, 36, 60, 47, 55, 19),
    (77, 19, 15, 30, 131, 25, 69, 15), (53, 68, 37, 11, 30, 44, 26, 19),
    (42, 13, 47, 40, 34, 55, 34, 44), (53, 32, 67, 40, 46, 18, 6, 56),
    (47, 50, 19, 58, 32, 69, 37, 39), (70, 13, 62, 16, 19, 37, 24, 43),
    (58, 39, 64, 37, 151, 7, 26, 67), (62, 29, 55, 7, 25, 59, 29, 69),
    (78, 9, 17, 7, 54, 12, 5, 9), (41, 70, 38, 22, 131, 64, 52, 34),
    (79, 8, 25, 68, 27, 55, 62, 58), (73, 62, 31, 41, 50, 46, 20, 41),
    (51, 67, 13, 33, 53, 29, 8, 17), (69, 59, 69, 53, 36, 58, 22, 9),
    (68, 11, 34, 24, 34, 43, 37, 65), (49, 44, 21, 11, 47, 32, 18, 28),
    (79, 57, 49, 14, 127, 175, 41, 5), (60, 24, 24, 11, 11, 70, 9, 34),
    (43, 44, 37, 52, 70, 27, 60, 38), (43, 30, 33, 8, 69, 14, 16, 34),
    (47, 61, 48, 32, 67, 46, 61, 53), (59, 33, 43, 5, 34, 25, 70, 67),
    (76, 67, 64, 29, 58, 10, 36, 53), (58, 69, 32, 6, 38, 20, 62, 46),
    (54, 23, 49, 13, 30, 68, 23, 42), (70, 20, 38, 11, 26, 6, 8, 47),
    (70, 61, 21, 48, 35, 49, 66, 52), (48, 56, 30, 59, 45, 57, 57, 35),
    (75, 25, 24, 18, 50, 58, 68, 45), (52, 58, 60, 20, 58, 60, 6, 46),
    (58, 33, 60, 36, 68, 15, 45, 48),
)
# bugs detected in each cell that has any, keyed (mission, phase) from 1
_DETECTIONS = {
    (1, 1): 3, (2, 1): 9, (3, 1): 6, (3, 2): 2, (4, 1): 5, (4, 3): 1, (5, 1): 4,
    (5, 2): 1, (6, 1): 4, (7, 1): 3, (7, 3): 1, (8, 1): 3, (9, 1): 3, (10, 1): 2,
    (10, 4): 1, (11, 1): 2, (12, 1): 2, (13, 1): 1, (13, 2): 1, (14, 1): 1, (15, 1): 1,
    (16, 1): 1, (16, 3): 1, (17, 1): 1, (21, 2): 1, (27, 4): 1,
}


def flight_software_campaign() -> TestCampaign:
    """The stored 35-mission, 8-phase campaign with 61 detected bugs.

    M1 and M2 hold the published anchor cells: 61, 10 and 38 test cases in
    phases 1, 2 and 8 of M1, with 3 bugs found in phase 1; 59, 10 and 65 in
    M2, with 9.  The other test-case counts were drawn once (PCG64, seed
    20240829, numpy 2.4.6): module testing 40-80 cases, integration 5-70,
    heavier sweeps of 120-159 on four missions and a 175-case regression
    cell (M21, phase 6), which sets t_max.  The detections were placed by
    hand, tapering off across missions, almost all in module testing.
    """
    bugs = [[0] * len(row) for row in _TEST_CASES]
    for (mission, phase), count in _DETECTIONS.items():
        bugs[mission - 1][phase - 1] = count
    return TestCampaign(test_cases=_TEST_CASES, bugs_detected=bugs)
