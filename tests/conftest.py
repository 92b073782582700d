from fractions import Fraction

import pytest

from frobwdvv.closedform import cf_mono
from frobwdvv.core import FrobeniusSpec
from frobwdvv.exact import Exact

F = Fraction


@pytest.fixture(scope="session")
def a2_s2_spec():
    """The printed hat potential of a2 in the (2,2) direction, written out by
    hand: an oracle for the transform, independent of the engine."""
    return FrobeniusSpec(
        name="a2s2", varnames=("v1", "v2"), unity=2,
        potential=(cf_mono(F(1, 2), {"v1": 1, "v2": 2})
                   + cf_mono(F(4, 5) * Exact({6: F(1, 3)}), {"v1": F(5, 2)})),
        charge=F(-1, 3), mu=(F(-1, 6), F(1, 6)), rmats={}, euler_shifts=(F(0), F(0)))
