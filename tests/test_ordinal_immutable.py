"""Ordinals refuse writes, and pickle and copy still rebuild them.

``ONE`` and ``ZERO`` are module constants and a sum may return one of its
summands, so one ordinal is shared by many values: a write to its terms
would change all of them.  The shared constants are written only in a
``python -O`` subprocess, so that a failure cannot reach other tests.
"""

import copy
import json
import os
import pickle
import subprocess
import sys

import pytest

import nbase
from nbase.ordinals import Ordinal, format_ordinal, parse_ordinal

LITERALS = ["0", "1", "5", "w", "w+1", "w^(w+2)+w+3", "phi(2,w)+phi(2,0)+1",
            "phi(3,phi(2,0)+1)+w^(2)"]


def test_terms_cannot_be_set_or_deleted():
    x = parse_ordinal("w+1")
    with pytest.raises(AttributeError, match="ordinals are immutable"):
        x.terms = ()
    with pytest.raises(AttributeError, match="ordinals are immutable"):
        del x.terms
    with pytest.raises(AttributeError, match="ordinals are immutable"):
        x.other = 1
    assert format_ordinal(x) == "w+1"


@pytest.mark.parametrize("text", LITERALS)
def test_pickle_and_copy_rebuild_an_equal_ordinal(text):
    x = parse_ordinal(text)
    rebuilt = [pickle.loads(pickle.dumps(x, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    rebuilt += [copy.copy(x), copy.deepcopy(x)]
    for y in rebuilt:
        assert type(y) is Ordinal
        assert y == x and format_ordinal(y) == text
        with pytest.raises(AttributeError):
            y.terms = ()


SHARED = """
import json, sys
from nbase import ordinals
refused = []
for name in ("ONE", "ZERO"):
    const = getattr(ordinals, name)
    for write in (lambda: setattr(const, "terms", ()),
                  lambda: delattr(const, "terms")):
        try:
            write()
        except AttributeError:
            refused.append(name)
print(json.dumps([sys.flags.optimize, refused,
                  ordinals.format_ordinal(ordinals.parse_ordinal("w+1"))]))
"""


def test_the_shared_constants_refuse_writes_under_python_O():
    src = os.path.dirname(os.path.dirname(os.path.abspath(nbase.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-O", "-c", SHARED],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [1, ["ONE", "ONE", "ZERO", "ZERO"], "w+1"]
