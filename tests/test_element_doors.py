"""Every element enters the intern table through a checked door.

``PlainElement`` sends level 0 to ``POINT``, level 1 to ``corolla`` and
every other level to ``make``, which checks the level before it looks the
key up: a key compares levels with ==, under which 2.0 == 2, so a later
check would refuse a float level only while the value is not yet built.
Corollas of arity 9906 and 9908 are built by no other test.
"""

import os
import subprocess
import sys

import pytest

from nbase.elements import PlainElement, corolla, make
from nbase.errors import LevelMismatch, RangeViolation

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_a_float_level_is_refused_before_and_after_the_value_is_built():
    factors, indices = (corolla(9906), corolla(2)), (1,)
    for _ in range(2):
        with pytest.raises(LevelMismatch):
            PlainElement(2.0, factors=factors, indices=indices)
        x = make(2, factors, indices)
    assert PlainElement(2, factors=factors, indices=indices) is x


def test_no_level_is_a_level_mismatch():
    with pytest.raises(LevelMismatch, match="got None"):
        PlainElement(None)


@pytest.mark.parametrize("build", [
    lambda: PlainElement(3),
    lambda: make(2, None, ()),
    lambda: make(2, 9907, ()),
], ids=["PlainElement(3)", "make(2,None,())", "make(2,9907,())"])
def test_non_iterable_factors_are_a_range_violation(build):
    with pytest.raises(RangeViolation, match="factors must be iterable"):
        build()


def test_the_doors_refuse_the_same_under_optimize():
    # asserts are stripped under -O; no refusal here depends on one
    code = ("from nbase.elements import PlainElement, corolla, make\n"
            "from nbase.errors import NBaseError\n"
            "F, I = (corolla(9908), corolla(2)), (1,)\n"
            "def outcome(build):\n"
            "    try:\n"
            "        build()\n"
            "    except NBaseError as exc:\n"
            "        return type(exc).__name__\n"
            "    return 'built'\n"
            "print(outcome(lambda: PlainElement(2.0, factors=F, indices=I)),\n"
            "      outcome(lambda: make(2, F, I)),\n"
            "      outcome(lambda: PlainElement(2.0, factors=F, indices=I)),\n"
            "      outcome(lambda: PlainElement(None)),\n"
            "      outcome(lambda: PlainElement(3)),\n"
            "      outcome(lambda: make(2, None, ())))\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["LevelMismatch", "built", "LevelMismatch",
                                   "LevelMismatch", "RangeViolation", "RangeViolation"]
