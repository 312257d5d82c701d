import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import pytest

import golden
from tropsched import _kernels, load_instance


@pytest.fixture(scope="session")
def doc():
    return load_instance(golden.fixture("vaccination.inst"))


@pytest.fixture(scope="session")
def inst(doc):
    return doc.instance


@pytest.fixture
def small_sentinels(monkeypatch):
    """The int64 sentinel scheme shrunk, so that path sums on small
    matrices cross the bottom cutoff as a 2050-node chain of -2**50 edges
    does at the real sizes."""
    monkeypatch.setattr(_kernels, "NEG", -(1 << 12))
    monkeypatch.setattr(_kernels, "BOTTOM_CUTOFF", -(1 << 11))
    monkeypatch.setattr(_kernels, "MAG_CAP", 1 << 8)
