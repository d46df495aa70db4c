"""Bad arguments to the public API end in a named NBaseError.

A slot that is not an integer, and a name that selects no format, kind or
suite, are refused with ``RangeViolation`` and ``UnknownStrategy``, never
with a bare ``TypeError`` or ``ValueError``.  A ``bool`` slot acts as its
integer value.  ``compose`` refuses a float slot whether or not the integer
it equals was composed before; ``test_compose_memo_slot.py`` pins that for
integral floats, so the compose cases below use slots that equal no integer.
"""

import pytest

from nbase.elements import compose, corolla, graft_at_slot
from nbase.errors import RangeViolation, UnknownStrategy
from nbase.grammar import parse_element as pe
from nbase.morphisms import enumerate_morphisms
from nbase.render import render
from nbase.selftest import run_suite

NOT_INTEGERS = [1.5, "1", None]


@pytest.mark.parametrize("slot", NOT_INTEGERS + [1.0])
def test_graft_refuses_a_non_integer_slot(slot):
    with pytest.raises(RangeViolation, match="integer"):
        graft_at_slot(pe("[2,1|1]"), slot, pe("[2|]"))


@pytest.mark.parametrize("slot", NOT_INTEGERS)
@pytest.mark.parametrize("x, y", [("[2,1|1]", "[1|]"), ("[[1,1|1],[1|]|2]", "[[1|]|]")])
def test_compose_refuses_a_non_integer_slot(x, y, slot):
    with pytest.raises(RangeViolation, match="integer"):
        compose(pe(x), slot, pe(y))


def test_level_one_compose_refuses_a_float_slot():
    # the level-1 maps are arithmetic on the slot: they would hold floats
    with pytest.raises(RangeViolation):
        compose(corolla(3), 1.5, corolla(2))


def test_a_bool_slot_acts_as_its_integer():
    u, v = pe("[2,1|1]"), pe("[2|]")
    assert graft_at_slot(u, True, v) == graft_at_slot(u, 1, v)
    assert all(type(i) is int for i in graft_at_slot(u, True, v).element.indices)
    assert compose(pe("[2,1|1]"), True, pe("[2|]")) == compose(pe("[2,1|1]"), 1, pe("[2|]"))


def test_render_refuses_an_unknown_format():
    with pytest.raises(UnknownStrategy, match="svg"):
        render(pe("[2|]"), "svg")


def test_enumerate_morphisms_refuses_an_unknown_kind():
    with pytest.raises(UnknownStrategy, match="three"):
        enumerate_morphisms(pe("[2|]"), "three")


def test_run_suite_refuses_an_unknown_suite():
    with pytest.raises(UnknownStrategy, match="nope"):
        run_suite("nope")
