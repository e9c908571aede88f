"""Shared fixtures of the test suite."""

import hashlib
import math

import numpy as np
import pytest

# sha256 of exp, sin, cos, sqrt, hypot and pow over a fixed vector, as numpy
# 2.4 computes them on x86-64 Linux, where the pinned bits of the golden tests
# were recorded.  Elsewhere these functions may round differently in the last
# bit, and the pinned bits cannot be compared.
_MATH_DIGEST = "a694f3cdb138ef19f11fc9722f70a07af850cd2ad7bbeccdd7aaea2e2682a4c3"


def _math_digest() -> str:
    x = np.linspace(-30.0, 30.0, 1001)
    h = hashlib.sha256()
    for arr in (np.exp(x), np.sin(x), np.cos(x), np.sqrt(np.abs(x)), np.hypot(x, 0.3),
                np.power(np.abs(x), 7)):
        h.update(arr.tobytes())
    return h.hexdigest()


@pytest.fixture
def recorded_math():
    """Skip a test of pinned bits where numpy's elementary functions differ."""
    if _math_digest() != _MATH_DIGEST:
        pytest.skip("numpy's elementary functions round differently here than where "
                    "the pinned bits were recorded")


@pytest.fixture
def fsum_l2():
    """`grid._l2` with its terms summed by `math.fsum`, exactly rounded: the
    reference for the accuracy of the pairwise sums."""
    def l2(wc, grid):
        terms = grid.multiplicity * np.abs(wc) ** 2
        return math.sqrt(math.fsum(terms.ravel().tolist()) / grid.area)
    return l2
