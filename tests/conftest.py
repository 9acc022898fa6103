import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "deterministic",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")

SCRIPTS = Path(__file__).parent.parent / "scripts"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance verdict lines even when stdout capture ate them."""
    module = sys.modules.get("test_acceptance")
    verdicts = getattr(module, "VERDICT_LINES", None) if module else None
    if verdicts:
        terminalreporter.section("acceptance criteria")
        for line in verdicts:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def small_ring_specs():
    """Rings small enough for the brute-force oracles."""
    return [
        "Zmod:2",
        "Zmod:4",
        "Zmod:6",
        "Zmod:8",
        "Zmod:9",
        "Zmod:12",
        "PolyQuot:{p:2,poly:[0,0,1]}",
        "PolyQuot:{p:2,poly:[1,1,1]}",
        "PolyQuot:{p:3,poly:[0,0,1]}",
        "Product:[Zmod:2,Zmod:2]",
        "Product:[Zmod:2,Zmod:4]",
        "Quotient:{ring:Zmod:12,gens:[6]}",
    ]


@pytest.fixture
def load_script(monkeypatch):
    """Load `scripts/NAME.py` by path as a module.  `scripts/` goes on
    sys.path first, so the script imports `harness` as it does when run."""
    monkeypatch.syspath_prepend(str(SCRIPTS))

    def load(name: str):
        spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    return load
