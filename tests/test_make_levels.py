"""`make` builds level >= 2 elements only.

`PlainElement` sends levels 0 and 1 to the point and `corolla` before it
looks at factors, so `make` refuses those levels, with the message it
gives every other level below 2, before it looks the key up.
"""

import pytest

from nbase.elements import corolla, make
from nbase.errors import LevelMismatch


@pytest.mark.parametrize("level, factors, indices", [
    (0, [corolla(3)], [5]),
    (1, [corolla(3)], []),
    (True, [corolla(3)], []),
])
def test_levels_0_and_1_are_refused(level, factors, indices):
    with pytest.raises(LevelMismatch, match=r"^element level must be an int >= 2, got %r$" % level):
        make(level, factors, indices)


def test_level_2_is_built():
    x = make(2, [corolla(3)], [])
    assert (x.level, x.factors, x.indices) == (2, (corolla(3),), ())
