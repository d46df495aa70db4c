"""Only int levels enter the intern table.

Equal elements are one object, and `2.0 == 2` hashes as `2`, so an
element first built with a float level would be returned to every later
caller that asks for the int one.  Each case here builds a value no other
test builds (arities 9901-9905), so it reaches the constructor's
cache-miss path, where the level is checked.
"""

import pytest

from nbase.elements import PlainElement, corolla, make
from nbase.enumeration import enumerate_elements
from nbase.errors import LevelMismatch, RangeViolation
from nbase.grammar import parse_element


def test_a_float_level_is_refused_and_never_interned():
    with pytest.raises(LevelMismatch, match=r"^element level must be an int >= 2, got 2\.0$"):
        make(2.0, [corolla(9901), corolla(9902)], [2])
    x = parse_element("[9901,9902|2]")
    assert type(x.level) is int and x.level == 2


def test_a_corolla_built_with_a_float_level_has_level_1():
    x = PlainElement(1.0, arity=9903)
    assert type(x.level) is int and x.level == 1
    assert corolla(9903) is x


@pytest.mark.parametrize("level", [-1, 1.5, 3.0, "2", None])
def test_every_other_level_is_a_level_mismatch(level):
    with pytest.raises(LevelMismatch, match=r"^element level must be an int >= 2, got "):
        make(level, [corolla(9904), corolla(9905)], [1])


def test_a_float_enumeration_level_interns_nothing():
    with pytest.raises(RangeViolation, match="^enumeration bounds must be integers"):
        enumerate_elements(2.0, 2, 2)
