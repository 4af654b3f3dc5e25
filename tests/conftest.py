import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(__file__))

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from octicmoduli.fields import PrimeField
from octicmoduli.forms import BinaryForm, disc_resultant


# every run draws the same examples and writes no example database
settings.register_profile("octicmoduli", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("octicmoduli")


def pytest_configure(config):
    """Hypothesis also caches the constants it reads from the source; that
    cache goes to a temporary directory, not the checkout."""
    config.hypothesis_home = tempfile.mkdtemp(prefix="octicmoduli-hypothesis-")
    set_hypothesis_home_dir(config.hypothesis_home)


def pytest_unconfigure(config):
    shutil.rmtree(config.hypothesis_home, ignore_errors=True)


@pytest.fixture(scope="session")
def F11():
    return PrimeField(11)


def polymul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def octic_from_univariate(field, coeffs):
    c = list(coeffs) + [0] * (9 - len(coeffs))
    return BinaryForm(field, 8, c)


def normal_model(stratum, field, rng, bound=6):
    """Random member of the stratum's normal family from the group table."""
    r = lambda: rng.randint(-bound, bound)
    if stratum == "C2":
        return octic_from_univariate(
            field, polymul(polymul([0, 1], [-1, 1]),
                           [r(), r(), r(), r(), r(), 1]))
    if stratum == "D4":
        return octic_from_univariate(field, [1, 0, r(), 0, r(), 0, r(), 0, 1])
    if stratum == "C4":
        return octic_from_univariate(
            field, polymul(polymul([0, 1], [-1, 0, 1]), [r(), 0, r(), 0, 1]))
    if stratum == "C2p3":
        return octic_from_univariate(
            field, polymul([1, 0, r(), 0, 1], [1, 0, r(), 0, 1]))
    if stratum == "C2xC4":
        return octic_from_univariate(
            field, polymul([-1, 0, 0, 0, 1], [1, 0, r(), 0, 1]))
    if stratum == "D12":
        return octic_from_univariate(field, [0, 1, 0, 0, r(), 0, 0, 1])
    if stratum == "C2xD8":
        return octic_from_univariate(field, [1, 0, 0, 0, r(), 0, 0, 0, 1])
    if stratum == "C14":
        return octic_from_univariate(field, [-1, 0, 0, 0, 0, 0, 0, 1])
    if stratum == "U6":
        return octic_from_univariate(field, [0, -1, 0, 0, 0, 0, 0, 1])
    if stratum == "V8":
        return octic_from_univariate(field, [-1, 0, 0, 0, 0, 0, 0, 0, 1])
    if stratum == "C2xS4":
        return octic_from_univariate(field, [1, 0, 0, 0, 14, 0, 0, 0, 1])
    raise KeyError(stratum)


def smooth_normal_model(stratum, field, rng, bound=6):
    while True:
        f = normal_model(stratum, field, rng, bound)
        if disc_resultant(f):
            return f


def lifted_jtuple(field, jtuple):
    """Move a tuple of field elements into another field (prime -> ext)."""
    out = []
    for v in jtuple:
        out.append(field(v.value) if hasattr(v, "value") else field(v))
    return out
