"""The coset cap of the Python API is an integer of at least 1.

`todd_coxeter`, `verify_symmetric_realization` and the order-only path take
`max_cosets` through `operator.index`, as `Presentation` takes its integers,
so a string, None or a float raises `RangeViolation`, as does a cap below 1.
`True` is the cap 1.  The same outcomes hold under ``python -O``.
"""

import json
import os
import subprocess
import sys

import pytest

import nbase
from nbase.errors import Overflow, RangeViolation
from nbase.grammar import parse_element
from nbase.presentations import (
    Presentation,
    _coset_counts,
    symmetric_presentation,
    todd_coxeter,
    verify_symmetric_realization,
)

REFUSED = [
    ("10", "coset cap must be an integer, got str"),
    (None, "coset cap must be an integer, got NoneType"),
    (2.5, "coset cap must be an integer, got float"),
    (0, "coset cap must be at least 1, got 0"),
    (-3, "coset cap must be at least 1, got -3"),
]


def outcomes():
    """[path, repr(cap), outcome] for each path and cap: the error and its
    message, or the order, or the verify report's enumerated order."""
    s3, tree = symmetric_presentation(3), parse_element("[2,2,2|1,1]", level=2)
    paths = [("todd_coxeter", lambda cap: todd_coxeter(s3, max_cosets=cap).order),
             ("_coset_counts", lambda cap: _coset_counts(s3, max_cosets=cap).order),
             ("verify", lambda cap: verify_symmetric_realization(
                 tree, max_cosets=cap).enumerated_order)]
    found = []
    for name, path in paths:
        for cap in [c for c, _ in REFUSED] + [True, 6]:
            try:
                found.append([name, repr(cap), path(cap)])
            except (RangeViolation, Overflow) as exc:
                found.append([name, repr(cap), type(exc).__name__, str(exc)])
    return found


EXPECTED = [row for name in ("todd_coxeter", "_coset_counts", "verify")
            for row in [[name, repr(cap), "RangeViolation", message] for cap, message in REFUSED]
            + [[name, "True", "Overflow", "coset cap 1 exceeded: defined 1, live 1, merged 0"],
               [name, "6", 6]]]


def test_true_is_the_cap_one():
    trivial = Presentation(0, ())
    assert todd_coxeter(trivial, max_cosets=True) == todd_coxeter(trivial, max_cosets=1)
    assert todd_coxeter(trivial, max_cosets=True).order == 1


def test_outcomes():
    assert outcomes() == EXPECTED


SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from test_coset_cap_input import outcomes
print(json.dumps([sys.flags.optimize, outcomes()]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_under_python_and_python_O(flags):
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(nbase.__file__)))
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, *flags, "-c", SCRIPT, tests], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [len(flags), EXPECTED]
