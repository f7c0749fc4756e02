import pytest

from hilbfock.errors import ModelError
from hilbfock.fock import FockVector
from hilbfock.models import builtin_model
from hilbfock.ring import RingEngine

_criterion_lines = {}


def record_criterion(number, name, ok, note=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({note})" if note else ""
    _criterion_lines[number] = f"ACCEPTANCE {number:2d} [{verdict}] {name}{suffix}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for number in sorted(_criterion_lines):
            terminalreporter.write_line(_criterion_lines[number])

_MODELS = {}
_ENGINES = {}


def model(name):
    got = _MODELS.get(name)
    if got is None:
        got = builtin_model(name)
        _MODELS[name] = got
    return got


def engine(name):
    got = _ENGINES.get(name)
    if got is None:
        got = RingEngine(model(name))
        _ENGINES[name] = got
    return got


def reduce(fock, v):
    """iota_n^*, the quotient reference of the tests: v without the monomials
    that carry a label of the restriction ideal."""
    pivots = fock.model.ideal_pivots
    if not pivots:
        raise ModelError("model has no restriction ideal")
    return FockVector({mono: w for mono, w in v.terms.items()
                       if not any(c in pivots for _, c in mono)})


@pytest.fixture(scope="session")
def models():
    return model


@pytest.fixture(scope="session")
def engines():
    return engine
