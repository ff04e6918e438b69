import math
import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def pytest_configure(config):
    # pyproject's pythonpath covers this process; the CLI subprocess test
    # needs zinv importable from src/ too
    paths = [SRC, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)


@pytest.fixture
def factor_calls(monkeypatch):
    """Denominators passed to zinv.factorize.factor_denominator during a test.

    Counts the calls reached through the factorize module, which is how the
    oracles factor (factorize.factor_denominator); the closed form binds its
    own name and is not counted.
    """
    from zinv import factorize

    calls = []
    real = factorize.factor_denominator

    def counted(d, *args, **kwargs):
        calls.append(d)
        return real(d, *args, **kwargs)

    monkeypatch.setattr(factorize, "factor_denominator", counted)
    return calls


@pytest.fixture
def compensated_sum():
    """A sum() that rounds like none of the left-to-right ones (Python 3.12
    compensates float sums), for floats and complex alike; patch it over a
    module's builtin sum() to show that no result hangs on sum()'s rounding."""

    def fsum(values, start=0):
        values = [start, *values]
        if not any(isinstance(v, complex) for v in values):
            return math.fsum(values)
        return complex(math.fsum(v.real for v in values), math.fsum(v.imag for v in values))

    return fsum
