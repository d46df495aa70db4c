"""A presentation is built from integers only.

``Presentation`` reads the generator count and every letter with
``operator.index`` (so True is 1) and refuses anything else, and a negative
generator count, with ``RangeViolation``, before any enumeration sees it.
The same outcomes hold under ``python -O``, and ``_replace`` checks its
result as construction does (for ``TwoMor2`` too).
"""

import os
import subprocess
import sys

import pytest

import nbase
from nbase.errors import DegreeMismatch, RangeViolation
from nbase.grammar import parse_element
from nbase.morphisms import apply_two
from nbase.presentations import Presentation, symmetric_presentation, todd_coxeter

REFUSED = [
    (2, ((1.5, 1.5),)),   # a float letter, which no enumeration column names
    (-1, ()),             # a negative generator count
    (2.0, ((1, 1),)),     # a float generator count
    (2, ((1, "a"),)),     # a letter that is not a number
]


@pytest.mark.parametrize("generators, relators", REFUSED)
def test_non_integer_input_is_a_range_violation(generators, relators):
    with pytest.raises(RangeViolation):
        Presentation(generators, relators)


def test_integer_like_input_is_read_as_integers():
    p = Presentation(True, [[True, 1]])
    assert p == Presentation(1, ((1, 1),)) and str(p) == "<a1 | a1*a1>"
    assert type(p.generators) is int and all(type(l) is int for l in p.relators[0])
    assert todd_coxeter(p).order == 2
    assert todd_coxeter(Presentation(0, ())).order == 1


SCRIPT = """
from nbase.presentations import Presentation
for args in %r:
    try:
        Presentation(*args)
    except Exception as exc:
        print(type(exc).__name__)
""" % (REFUSED,)


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_under_python_and_python_O(flags):
    src = os.path.dirname(os.path.dirname(os.path.abspath(nbase.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, *flags, "-c", SCRIPT], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.stdout == "RangeViolation\n" * len(REFUSED) and proc.stderr == ""


def test_replace_validates_as_construction_does():
    with pytest.raises(RangeViolation):
        symmetric_presentation(3)._replace(generators=-1)
    assert symmetric_presentation(3)._replace(relators=[[1, True]]) == Presentation(2, ((1, 1),))
    two = apply_two(parse_element("[2,2|1]"), (2, 1))
    with pytest.raises(DegreeMismatch):
        two._replace(sigma=(1, 1))
    assert two._replace(sigma=(2, 1)) == two
