"""`verify_symmetric_realization` bounds a tree presentation's order by a chain.

With the nodes taken breadth-first from node 1, step k enumerates the
cosets of the subgroup generated by the edges of the first k - 1 nodes in
the group of the edges of the first k nodes (`presentations._chain_counts`).
Every binary tree of 1-8 nodes closes each step at exactly k cosets with no
coincidence, n(n+1)/2 - 1 cosets over the whole chain, and so does the
32-node complete tree (527 cosets for 32!, about 0.07 s).  The chain is
called directly here, so check mode does not also enumerate the n! cosets.

Negative control: with one relator dropped from a 5- or 6-node tree's
presentation, the chain either closes at the order of the full enumeration
or gives up (None), and verify then falls back to the full enumeration.
"""

import os
import subprocess
import sys
from collections import Counter
from math import factorial

import pytest

import nbase
from nbase import presentations
from nbase.cli import main
from nbase.enumeration import enumerate_elements
from nbase.errors import Overflow
from nbase.grammar import parse_element
from nbase.presentations import (
    Presentation,
    _chain_counts,
    _coset_counts,
    tree_presentation,
    verify_symmetric_realization,
)
from nbase.trees import from_tree

EIGHT = "[2,2,2,2,2,2,2,2|1,1,1,3,6,7,7]"
# a cap above the peak live count of every full enumeration that the
# negative control compares with a closed chain
CAP = 1000


def presentations_of(nodes):
    """(presentation, edge structure) of every binary tree, once per presentation."""
    found = {}
    for x in enumerate_elements(2, nodes, 2):
        if x.m == nodes and all(f.arity == 2 for f in x.factors):
            pres, es = tree_presentation(x)
            found.setdefault(pres, es)
    return list(found.items())


def complete_tree(nodes):
    """The complete binary tree on `nodes` nodes: node i's children are 2i and 2i+1."""
    leaves = iter(range(-1, -2 * nodes - 2, -1))
    return from_tree([[c if c <= nodes else next(leaves) for c in (2 * i, 2 * i + 1)]
                      for i in range(1, nodes + 1)])


def kind(relator):
    return {2: "square", 4: "commutator", 6: "braid", 8: "twist"}[len(relator)]


def dropped(pres, i):
    return Presentation(pres.generators, pres.relators[:i] + pres.relators[i + 1:])


@pytest.mark.parametrize("nodes", range(1, 9))
def test_every_tree_closes_at_k_cosets_per_step(nodes):
    for pres, es in presentations_of(nodes):
        ct = _chain_counts(pres, es, 100_000)
        assert ct.complete and ct.order == factorial(nodes)
        assert (ct.defined, ct.merged) == (nodes * (nodes + 1) // 2 - 1, 0)


def test_complete_32_node_tree():
    pres, es = tree_presentation(complete_tree(32))
    ct = _chain_counts(pres, es, 100_000)
    assert (ct.order, ct.defined, ct.merged) == (factorial(32), 527, 0)


def test_cli_verifies_an_8_node_tree(capsys):
    assert main(["group", "verify", "--tree", EIGHT]) == 0
    assert capsys.readouterr() == (
        "nodes 8 edges 7 relators True generated 40320 enumerated 40320 iso True\n", "")


def test_no_full_enumeration_when_the_chain_closes(monkeypatch):
    calls = []

    def counts(pres, max_cosets=100_000, subgroup=()):
        calls.append((pres.generators, len(subgroup)))
        return _coset_counts(pres, max_cosets, subgroup)

    monkeypatch.setattr(presentations, "_CHECK", False)
    monkeypatch.setattr(presentations, "_coset_counts", counts)
    assert verify_symmetric_realization(parse_element(EIGHT, level=2)).isomorphic
    assert calls == [(k - 1, k - 2) for k in range(2, 9)]


def test_fallback_when_the_chain_gives_up(monkeypatch):
    monkeypatch.setattr(presentations, "_chain_counts", lambda pres, es, cap: None)
    rep = verify_symmetric_realization(parse_element("[2,2,2,2,2|1,1,1,1]", level=2))
    assert (rep.enumerated_order, rep.isomorphic) == (120, True)


def test_dropped_relator_closes_at_the_full_order_or_gives_up():
    outcomes = Counter()
    for pres, es in presentations_of(5) + presentations_of(6):
        for i, r in enumerate(pres.relators):
            p = dropped(pres, i)
            ct = _chain_counts(p, es, CAP)
            if ct is not None:
                assert ct.order == _coset_counts(p, CAP).order
            outcomes[kind(r), ct is not None] += 1
    assert outcomes == {("braid", True): 38, ("braid", False): 70,
                        ("commutator", False): 104, ("square", False): 113,
                        ("twist", False): 19}


@pytest.mark.parametrize("relator, full", [((3, 4, 3, 4, 3, 4), 720), ((1, 3, 1, 3), None)])
def test_dropped_relator_falls_back(relator, full):
    """The braid relator is implied, so the full enumeration still gives 6!.
    No dropped commutator of a 5- to 7-node tree is implied: every one
    leaves a full enumeration that overflows, at the default cap too."""
    pres, es = tree_presentation(parse_element("[2,2,2,2,2,2|1,1,1,1,3]", level=2))
    p = dropped(pres, pres.relators.index(relator))
    assert _chain_counts(p, es, 5000) is None
    try:
        order = _coset_counts(p, 5000).order
    except Overflow:
        order = None
    assert order == full


SCRIPT = """
from nbase import presentations
from nbase.errors import TrustViolation
from nbase.grammar import parse_element

chain = presentations._chain_counts
presentations._chain_counts = lambda *a: chain(*a)._replace(order=5)
try:
    presentations.verify_symmetric_realization(parse_element("[2,2,2|1,1]", level=2))
except TrustViolation as exc:
    print(exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_check_mode_backstop(flags):
    src = os.path.dirname(os.path.dirname(os.path.abspath(nbase.__file__)))
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, *flags, "-c", SCRIPT], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path, NBASE_CHECK="1"), timeout=60)
    assert proc.stdout == "chain of subgroups gives order 5, full enumeration 6\n", proc.stderr

