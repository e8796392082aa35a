import pytest

from lexroad import rulepack

# The evaluation matrix fixture, transcribed row by row:
# (group, requirement, vauxhall, mitsubishi, bmw).
MATRIX_ROWS = [
    ("99-100", "Identifies when a restraint is required", "✓", "✓", "✓"),
    ("99-100", "Identifies correct restraint type", "✗", "✗", "✗"),
    ("99-100", "Identifies when any restraint is unplugged", "✓", "✗", "✓"),
    ("99-100", "Cease smart function when unplugged", "✗", "✗", "✗"),
    ("103-105", "Smart function reads most speed limit signs", "✓", "N/A", "✓"),
    ("103-105", "Smart function identifies most give way signs", "✗", "N/A", "✓"),
    ("103-105", "Smart function identifies most stop signs", "✗", "N/A", "✗"),
    ("103-105", "Smart function is adherent to sign's instructions", "✗", "N/A", "✗"),
    ("103-105", "Smart function automatically alerts when changing lane (LCA)", "N/A", "N/A", "✓"),
    ("103-105", "Smart function automatically alerts when braking (ACC)", "N/A", "✓", "✓"),
    ("103-105", "Smart function automatically cancels signal after use", "N/A", "✓", "✓"),
    ("103-105", "Smart function can detect and cancel signal if it may be misleading to other road users", "✗", "✗", "✗"),
    ("113", "Smart function identifies and responds to low light conditions by activating tail, plate and head lights", "✓", "✓", "✓"),
    ("127-132", "Smart function identifies lane markings", "✓", "N/A", "✓"),
    ("127-132", "Smart function alerts driver when about to cross lane markings", "✓", "N/A", "✓"),
    ("127-132", "Smart function able to keep vehicle 'in lane'", "✓", "N/A", "✓"),
    ("127-132", "Smart function prevents crossing solid double lines", "✗", "N/A", "✗"),
    ("137-138", "Smart function correctly identifies when vehicle is not, but should be, in left-most lane", "✗", "N/A", "✗"),
    ("191-199", "Smart function correctly identifies most pedestrians", "✓", "✓", "✗"),
    ("191-199", "Smart function takes appropriate action to avoid accident with pedestrian", "✗", "✓", "✗"),
    ("191-199", "Smart function identifies pedestrian crossings", "✗", "✗", "✗"),
    ("229", "Smart function able to verify snow and ice cleared from vehicle", "✗", "✗", "✗"),
    ("229", "Smart function able to verify windscreen is free of snow and ice and demisted", "✓", "N/A", "✓"),
    ("229", "Smart function able to verify lights and number plates are visible and free of obstruction", "✗", "✗", "✗"),
    ("229", "Smart function provides traffic incident and accident alerts", "✓", "N/A", "✓"),
    ("229", "Smart function provides information on traffic congestion on route", "✗", "N/A", "✓"),
    ("229", "Smart function suggests routes to avoid incidents and/or congestion", "✓", "N/A", "✓"),
]


@pytest.fixture(scope="session")
def pack():
    return rulepack.load_rulepack(rulepack.default_pack_dir())


@pytest.fixture(scope="session")
def rules_by_id(pack):
    return {entry.rule_id: entry for entry in pack.rules()}

