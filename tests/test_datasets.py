import hashlib

import numpy as np

from bugsize.dataio import write_campaign
from bugsize.datasets import flight_software_campaign
from helpers import same_campaign

# sha256 of write_campaign(flight_software_campaign()): the campaign CSV that
# the flight-fit benchmark, acceptance criterion 6 and demo 04 fit
CAMPAIGN_SHA256 = "797d224fd8d64ea8a2212562f25564b044b27b6e4498d874f242dce39a4ff8d0"


def test_flight_campaign_shape_and_anchors():
    campaign = flight_software_campaign()
    assert (campaign.missions, campaign.phases) == (35, 8)
    assert campaign.detected_total == 61
    # cells locked to the published sample rows
    assert campaign.test_cases[0, 0] == 61 and campaign.bugs_detected[0, 0] == 3
    assert campaign.test_cases[0, 1] == 10 and campaign.test_cases[0, 7] == 38
    assert campaign.test_cases[1, 0] == 59 and campaign.bugs_detected[1, 0] == 9
    assert campaign.test_cases[1, 1] == 10 and campaign.test_cases[1, 7] == 65
    # module testing dominates the detections
    assert campaign.bugs_detected[:, 0].sum() > campaign.bugs_detected[:, 1:].sum()


def test_flight_campaign_deterministic():
    a = flight_software_campaign()
    b = flight_software_campaign()
    assert same_campaign(a, b)
    assert a.t_max == 175
    assert np.all(a.test_cases >= 0)


def test_flight_campaign_file_is_pinned(tmp_path):
    path = tmp_path / "campaign.csv"
    write_campaign(flight_software_campaign(), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CAMPAIGN_SHA256
