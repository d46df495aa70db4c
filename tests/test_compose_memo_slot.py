"""`compose` answers a slot the same way whether or not its memo holds it.

A memo key compares the slot with ==, under which 2.0 == 2 and True == 1,
so only an int slot is answered from the memo; any other goes through the
slot check, which refuses a float and reads a bool as its integer value.
"""

import pytest

from nbase.elements import compose, corolla
from nbase.errors import RangeViolation
from nbase.grammar import parse_element as pe


@pytest.mark.parametrize("x, y", [(corolla(3), corolla(2)),
                                  (pe("[2,1|1]"), pe("[1|]"))])
def test_a_float_slot_is_refused_after_its_int_slot_was_composed(x, y):
    composed = compose(x, 2, y)
    with pytest.raises(RangeViolation, match="integer"):
        compose(x, 2.0, y)
    assert compose(x, 2, y) is composed


def test_a_bool_slot_after_its_int_slot_was_composed_is_that_slot():
    x, y = pe("[2,1|1]"), pe("[2|]")
    composed = compose(x, 1, y)
    assert compose(x, True, y) == composed
