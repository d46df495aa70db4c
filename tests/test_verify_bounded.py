"""``verify_symmetric_realization`` ends in ``Overflow`` before Schreier-Sims.

Coset enumeration runs first, so a tree whose n! is beyond the coset cap
stops there and the Schreier-Sims order is never computed.  On the 64-node
complete binary tree (node i's children are 2i and 2i+1) the enumeration
overflows in well under a second, in the Python API and in
``nbase group verify --tree``.  The same outcomes hold under ``python -O``.
"""

import os
import subprocess
import sys

import pytest

import nbase
from nbase import cli, presentations
from nbase.errors import Overflow
from nbase.grammar import format_element
from nbase.trees import from_tree

NODES = 64


def complete_tree():
    """Child lists of the complete binary tree on NODES nodes, leaves in order."""
    leaves = iter(range(-1, -2 * NODES - 2, -1))
    return from_tree([[c if c <= NODES else next(leaves) for c in (2 * i, 2 * i + 1)]
                      for i in range(1, NODES + 1)])


@pytest.fixture
def no_schreier_sims(monkeypatch):
    def refuse(gens, n):
        raise AssertionError("schreier_sims_order ran before the enumeration ended")
    monkeypatch.setattr(presentations, "schreier_sims_order", refuse)


def test_tree_shape():
    x = complete_tree()
    assert x.m == NODES and all(f.arity == 2 for f in x.factors)
    assert len(presentations.edge_structure(x).edges) == NODES - 1


def test_overflow_in_process(no_schreier_sims):
    with pytest.raises(Overflow):
        presentations.verify_symmetric_realization(complete_tree())


def test_cli_exits_1_with_overflow(no_schreier_sims, capsys):
    assert cli.main(["group", "verify", "--tree", format_element(complete_tree())]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("Overflow: coset cap 100000 exceeded")


SCRIPT = """
from nbase import cli, presentations
from nbase.grammar import format_element
from test_verify_bounded import complete_tree

def refuse(gens, n):
    raise SystemExit("schreier_sims_order ran before the enumeration ended")

presentations.schreier_sims_order = refuse
try:
    presentations.verify_symmetric_realization(complete_tree())
except Exception as exc:
    print(type(exc).__name__)
print(cli.main(["group", "verify", "--tree", format_element(complete_tree())]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_under_python_and_python_O(flags):
    src = os.path.dirname(os.path.dirname(os.path.abspath(nbase.__file__)))
    path = os.pathsep.join([src, os.path.dirname(os.path.abspath(__file__))]
                           + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, *flags, "-c", SCRIPT], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert proc.stdout == "Overflow\n1\n"
    assert proc.stderr.startswith("Overflow: coset cap 100000 exceeded")
