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
def schemas():
    """Every schema under ``schemas/``, by name (``interval_union``, ...)."""
    root = Path(__file__).resolve().parents[1] / "schemas"
    return {path.name.split(".")[0]: json.loads(path.read_text())
            for path in root.glob("*.schema.json")}


@pytest.fixture(scope="session")
def piecewise_linear_schema(schemas):
    return schemas["piecewise_linear"]
