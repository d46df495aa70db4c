"""Bounded work and named errors at the tree boundaries.

- ``trees.from_tree`` refuses child lists that are not one tree below node
  1 (a cycle, a node named twice or never, a repeated leaf) with
  ``InvalidTree``, where it used to loop or return a wrong element.
- ``tree_presentation`` reads the edge triples at a node off the incidence
  lists in linear time, and refuses more than ``MAX_TREE_EDGES`` edges.
  Below the bound its output is pinned by a digest recorded when the
  triples came from a scan of every edge triple.
"""

import contextlib
import hashlib
import io
import time

import pytest

from nbase.cli import main
from nbase.enumeration import enumerate_elements
from nbase.errors import InvalidTree, SizeBound
from nbase.grammar import format_element, parse_element as pe
from nbase.presentations import MAX_TREE_EDGES, edge_structure, tree_presentation
from nbase.trees import from_tree, to_tree


@pytest.mark.parametrize("children", [
    [[2], [1]],             # a cycle through node 1
    [[2, 2], [-1, -2]],     # node 2 named twice
    [[-1], [-2]],           # node 2 never named
    [[-1, -1]],             # leaf -1 twice
    [[-1], [3], [2]],       # a cycle that node 1 does not reach
    [[3], [-1]],            # a node that does not exist
    [[0, -1]],              # neither a node nor a leaf
    [],                     # no root
], ids=repr)
def test_from_tree_refuses_what_is_not_one_tree(children):
    with pytest.raises(InvalidTree):
        from_tree(children)


@pytest.mark.parametrize("children", [
    [[2.0], [-1]],          # a float that equals a node number
    [["a"]],
    [[None]],
    [[True], [-1]],         # a bool is not a node number
    [[2], 5],               # a row that is not a list
], ids=repr)
def test_from_tree_refuses_entries_that_are_not_ints(children):
    with pytest.raises(InvalidTree):
        from_tree(children)


def test_from_tree_keeps_partial_leaf_sets_and_round_trips():
    # the unit plugs pass leaves with gaps; they are numbered left to right
    assert format_element(from_tree([[-4, 2], [-1, -9]])) == "[2,2|2]"
    assert format_element(from_tree([[]])) == "[0|]"
    for x in enumerate_elements(2, 5, 3):
        assert from_tree(to_tree(x)) is x


def comb(k):
    """Left comb of k binary nodes."""
    return pe("[%s|%s]" % (",".join(["2"] * k), ",".join(["1"] * (k - 1))), level=2)


def scanned_triples(x):
    """Edge triples with a common node, by a scan of every triple."""
    edges = edge_structure(x).edges
    return [(i, j, k) for i in range(1, len(edges) + 1)
            for j in range(i + 1, len(edges) + 1)
            for k in range(j + 1, len(edges) + 1)
            if set(edges[i - 1]) & set(edges[j - 1]) & set(edges[k - 1])]


def test_tree_presentations_match_the_digest_of_the_triple_scan():
    shapes = [e for e in enumerate_elements(2, 7, 2)
              if all(f.arity == 2 for f in e.factors)]
    for x in shapes[::7]:
        twists = [r[:3] for r in tree_presentation(x)[0].relators if len(r) == 8]
        assert twists == scanned_triples(x)
    shapes += [comb(50), comb(MAX_TREE_EDGES + 1)]
    lines = [repr(tree_presentation(x)[0]) for x in shapes]
    assert len(lines) == 627
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "e1631bb1e63c0256754079ed63afa382e5a9ee132301e560363a5aad43af5230")


def test_tree_presentation_bounds_the_edge_count():
    with pytest.raises(SizeBound, match="%d edges" % MAX_TREE_EDGES):
        tree_presentation(comb(MAX_TREE_EDGES + 2))


@pytest.mark.parametrize("command", ["present", "verify", "order"])
def test_a_300_node_comb_exits_1_at_once(command):
    literal = format_element(comb(300))
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["group", command, "--tree", literal])
    assert time.perf_counter() - start < 1
    assert code == 1 and out.getvalue() == ""
    assert err.getvalue().startswith("SizeBound: ")
