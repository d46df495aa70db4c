"""An edge structure's incidence map refuses writes.

`EdgeStructure` is a record, and `_chain_counts` and `tree_presentation`
read its incidence map: a write such as `incidence[1] = (9,)` would change
the presentation that a later reader builds from it.  The map is
`elements._ReadOnly`, as the shared shuffle maps are: every write method
raises `TypeError`, in-process and under `python -O`, and pickle and
`copy.deepcopy` give an equal map that refuses writes too.
"""

import copy
import json
import os
import pickle
import subprocess
import sys

import pytest

import nbase
from nbase.grammar import parse_element as pe
from nbase.presentations import edge_structure

TREE = "[2,2,2,2|1,1,3]"
INCIDENCE = {1: (1,), 2: (1, 2, 3), 3: (2,), 4: (3,)}

WRITES = {
    "setitem": lambda m: m.__setitem__(1, (9,)),
    "delitem": lambda m: m.__delitem__(1),
    "update": lambda m: m.update({1: (9,)}),
    "setdefault": lambda m: m.setdefault(9, (9,)),
    "pop": lambda m: m.pop(1),
    "popitem": lambda m: m.popitem(),
    "clear": lambda m: m.clear(),
    "ior": lambda m: m.__ior__({1: (9,)}),
}


def outcomes(incidence):
    """Write method -> the class name of what it raised, or None."""
    found = {}
    for name, write in WRITES.items():
        try:
            write(incidence)
        except Exception as exc:  # every outcome is reported
            found[name] = type(exc).__name__
        else:
            found[name] = None
    return found


def test_the_incidence_map_refuses_every_write():
    es = edge_structure(pe(TREE))
    with pytest.raises(TypeError):
        es.incidence[1] = (9,)
    assert outcomes(es.incidence) == dict.fromkeys(WRITES, "TypeError")
    assert es.incidence == INCIDENCE
    assert edge_structure(pe(TREE)).incidence == INCIDENCE


def test_the_incidence_map_pickles_and_deep_copies_to_an_equal_read_only_map():
    es = edge_structure(pe(TREE))
    for again in (pickle.loads(pickle.dumps(es)), copy.deepcopy(es)):
        assert again == es and repr(again) == repr(es)
        assert again.incidence == INCIDENCE
        assert outcomes(again.incidence) == dict.fromkeys(WRITES, "TypeError")


OPTIMIZED = """
import json, sys
sys.path.insert(0, sys.argv[1])
from test_edge_incidence import TREE, outcomes
from nbase.grammar import parse_element as pe
from nbase.presentations import edge_structure
es = edge_structure(pe(TREE))
print(json.dumps([sys.flags.optimize, outcomes(es.incidence), sorted(es.incidence.items())]))
"""


def test_the_incidence_map_refuses_writes_under_python_O():
    # -O strips asserts, so the refusal may not rest on one
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(nbase.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED, tests],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    optimize, found, items = json.loads(proc.stdout)
    assert optimize == 1
    assert found == dict.fromkeys(WRITES, "TypeError")
    assert {k: tuple(v) for k, v in items} == INCIDENCE
