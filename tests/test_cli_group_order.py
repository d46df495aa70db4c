"""`nbase group order` prints the order of every 5-node binary tree's
presentation and of S2-S6, exactly, and exits 0.  The command reads only
the order, so it takes the enumeration without the renumbered rows."""

from math import factorial

import pytest

from nbase.cli import main
from nbase.enumeration import enumerate_elements
from nbase.grammar import format_element

SHAPES = [format_element(x) for x in enumerate_elements(2, 5, 2)
          if x.m == 5 and all(f.arity == 2 for f in x.factors)]


def test_every_5_node_shape():
    assert len(SHAPES) == 42


@pytest.mark.parametrize("tree", SHAPES)
def test_tree_order(capsys, tree):
    assert main(["group", "order", "--tree", tree]) == 0
    assert capsys.readouterr() == ("120\n", "")


@pytest.mark.parametrize("n", range(2, 7))
def test_sym_order(capsys, n):
    assert main(["group", "order", "--sym", str(n)]) == 0
    assert capsys.readouterr() == ("%d\n" % factorial(n), "")
