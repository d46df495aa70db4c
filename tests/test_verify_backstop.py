"""Two branches of `verify_symmetric_realization` that no other test reaches.

The check-mode backstop compares a closed chain of subgroups with the full
enumeration under the caller's cap.  The full enumeration can peak above a
cap that the chain stays under, and its `Overflow` is no mismatch: the
chain's proof stands, so check mode prints what a plain run prints.

`_chain_counts` gives up (None) when a step closes at a count other than
k, not only on an `Overflow`: with the braid relator of a 3-node path
raised to (a1*a2)^6 the group is dihedral of order 12, and the last step
closes at 6 cosets instead of 3.
"""

import os
import subprocess
import sys

import pytest

import nbase
from nbase import presentations
from nbase.cli import main
from nbase.errors import Overflow
from nbase.grammar import parse_element
from nbase.presentations import Presentation, _chain_counts, _coset_counts, tree_presentation

ARGV = ["group", "verify", "--tree", "[2,2,2,2,2,2|1,1,1,1,1]", "--max-cosets", "720"]
LINE = "nodes 6 edges 5 relators True generated 720 enumerated 720 iso True\n"


def test_backstop_overflow_keeps_the_chain_result(capsys):
    pres, _ = tree_presentation(parse_element(ARGV[3], level=2))
    with pytest.raises(Overflow, match="^coset cap 720 exceeded: defined 771, live 720, merged 51$"):
        _coset_counts(pres, 720)
    assert presentations._CHECK
    assert main(ARGV) == 0
    assert capsys.readouterr() == (LINE, "")
    src = os.path.dirname(os.path.dirname(os.path.abspath(nbase.__file__)))
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-m", "nbase.cli", *ARGV], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path, NBASE_CHECK="0"),
                          timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, LINE, "")


def test_chain_gives_up_when_a_step_closes_above_k():
    pres, es = tree_presentation(parse_element("[2,2,2|1,1]", level=2))
    assert (1, 2) * 3 in pres.relators
    dihedral = Presentation(2, [(1, 2) * 6 if r == (1, 2) * 3 else r for r in pres.relators])
    assert _chain_counts(dihedral, es, 100_000) is None
    assert _coset_counts(dihedral, 100_000, [(1,)]).order == 6
    assert _coset_counts(dihedral).order == 12
