"""Every refusal of ``refusal_table`` ends in its named error, in-process
and under ``python -O``; and check mode refuses a trusted value whose
validation itself raises."""

import json
import os
import subprocess
import sys

import pytest

import nbase
from nbase import elements
from nbase.elements import corolla
from nbase.errors import NBaseError, TrustViolation
from refusal_table import REFUSALS


@pytest.mark.parametrize("name, error, fragment, call", REFUSALS,
                         ids=[case[0] for case in REFUSALS])
def test_refusal_is_named(name, error, fragment, call):
    assert issubclass(error, NBaseError)
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)


OPTIMIZED = """
import json, sys
sys.path.insert(0, sys.argv[1])
from refusal_table import outcomes
print(json.dumps([sys.flags.optimize, outcomes()]))
"""


def test_refusals_are_named_under_python_O():
    # -O strips asserts, so no refusal may rest on one
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(nbase.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, NBASE_CHECK="1",
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED, tests],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    optimize, found = json.loads(proc.stdout)
    assert optimize == 1
    for name, error, fragment, _call in REFUSALS:
        assert found[name] is not None, name
        kind, message = found[name]
        assert kind == error.__name__, (name, message)
        assert fragment in message, (name, message)


def test_check_mode_refuses_a_trusted_value_that_fails_validation(monkeypatch):
    # index 5 of a single-factor sequence: validation raises RangeViolation,
    # which is not the claimed total, so check mode reports the disagreement
    monkeypatch.setattr(elements, "_CHECK", True)
    key = (2, (corolla(2),), (5,))
    assert key not in elements._interned
    with pytest.raises(TrustViolation, match="validates to"):
        elements._trusted(*key, corolla(2))
    assert key not in elements._interned
