"""One cached pool per bound, built bottom up.

`enumeration._enumerate(level, max_factors, max_arity, min_arity)` takes
its four bounds positionally, so a pool has one cache key whoever asks for
it: the level-2 pool that a level-3 enumeration builds is the pool a
later level-2 enumeration reads.  The levels below are built one after
another, so a level-256 pool needs no deep recursion.  The unit bijection
check reads both of its level-1 pools from the same cache.
"""

import os
import subprocess
import sys

import pytest

import nbase
from nbase import enumeration
from nbase.enumeration import enumerate_elements
from nbase.errors import RangeViolation
from nbase.units import BijectionReport, check_runital_bijection


def test_a_pool_built_below_is_not_built_again():
    enumeration._enumerate.cache_clear()
    try:
        enumerate_elements(3, 3, 2)
        misses = enumeration._enumerate.cache_info().misses
        assert len(enumerate_elements(2, 3, 2)) == 30
        assert enumeration._enumerate.cache_info().misses == misses
    finally:
        enumeration._enumerate.cache_clear()


def test_the_four_bounds_are_positional_and_required():
    with pytest.raises(TypeError):
        enumeration._enumerate(2, 3, 2)
    with pytest.raises(TypeError):
        enumeration._enumerate(level=2, max_factors=3, max_arity=2, min_arity=1)


@pytest.mark.parametrize("bounds", [(2.0, 2, 2, 1), (2, 2.0, 2, 1), (2, 2, 2.0, 1),
                                    (2, 2, 2, 1.0), (True, 2, 2, 1), ("2", 2, 2, 1)])
def test_bounds_that_are_not_ints_are_refused_even_when_the_int_pool_is_cached(bounds):
    enumeration._enumerate(2, 2, 2, 1)
    with pytest.raises(RangeViolation, match="^enumeration bounds must be integers"):
        enumeration._enumerate(*bounds)


def test_a_deep_pool_is_built_bottom_up():
    src = os.path.dirname(os.path.dirname(os.path.abspath(nbase.__file__)))
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    code = ("import sys; sys.setrecursionlimit(120); "
            "from nbase.enumeration import _enumerate; "
            "print(len(_enumerate(256, 1, 1, 1)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "1\n"), proc.stderr


@pytest.mark.parametrize("max_factors", [1, 2, 3])
@pytest.mark.parametrize("max_arity", [0, 1, 3, 5])
def test_the_level_1_bijection_report(max_factors, max_arity):
    assert check_runital_bijection(1, max_factors, max_arity) == BijectionReport(
        1, max_arity, max_arity, True, (), ())


@pytest.mark.parametrize("level", [1, 2])
def test_a_factor_bound_below_1_gives_empty_pools_at_both_levels(level):
    assert check_runital_bijection(level, 0, 3) == BijectionReport(
        level, 0, 0, True, (), ())
