import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "deterministic",
    derandomize=True,
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def piecewise_linear_schema():
    path = Path(__file__).resolve().parents[1] / "schemas" / \
        "piecewise_linear.schema.json"
    with open(path) as fh:
        return json.load(fh)
