"""Expected values that do not come from the code under test.

Level-2 elements are planar trees, and ``tests/oracle_trees.py`` replays
them on explicit tree structures with its own bookkeeping.  This module
builds on that oracle to give the benchmark independent answers for
composition, shuffles, normalization, head decomposition, one-morphisms
and DOT rendering at level 2.  Shuffle maps at every level are checked by
the benchmark's own monotonicity and partition test, because
``ShuffleMap.check`` relies on ``assert``.
"""

import importlib.util
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_oracle():
    path = os.path.join(ROOT, "tests", "oracle_trees.py")
    spec = importlib.util.spec_from_file_location("perfbench_oracle_trees", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


oracle = _load_oracle()

_LEVEL2 = re.compile(r"^\[(\d+(?:,\d+)*)\|(\d+(?:,\d+)*)?\]$")


def split2(lit):
    """(arities, indices) of a level-2 literal like "[3,2|1]"."""
    m = _LEVEL2.match(lit.replace(" ", ""))
    if m is None:
        raise ValueError("not a level-2 literal: %r" % lit)
    arities = [int(a) for a in m.group(1).split(",")]
    indices = [int(i) for i in m.group(2).split(",")] if m.group(2) else []
    return arities, indices


def lit2(arities, indices):
    return "[%s|%s]" % (",".join(map(str, arities)), ",".join(map(str, indices)))


def json2(arities, indices):
    """The CLI's JSON mirror of a level-2 element."""
    return {"level": 2,
            "factors": [{"level": 1, "arity": a} for a in arities],
            "indices": list(indices)}


def compose2(x_lit, i, y_lit):
    """(result literal, phi, psi) of substituting y at node i of x."""
    xa, xi = split2(x_lit)
    ya, yi = split2(y_lit)
    arities, indices, phi, psi = oracle.oracle_compose(xa, xi, i, ya, yi)
    return lit2(arities, indices), phi, psi


def normalize2(raw_lit):
    """(canonical literal, positions) of a raw level-2 graft sequence.

    Grafting in any order builds the same tree; its preorder is the
    canonical order, and positions[t-1] is where raw factor t lands.
    """
    arities, indices = split2(raw_lit)
    root = oracle.build_tree(arities, indices, "r")
    canon_a, canon_i = oracle.serialize(root)
    positions = [0] * len(arities)
    for pos, node in enumerate(oracle.preorder(root), start=1):
        positions[node["tag"][1] - 1] = pos
    return lit2(canon_a, canon_i), positions


def head2(lit):
    """(head arity, [(prong, subtree literal)]) of a level-2 element."""
    arities, indices = split2(lit)
    root = oracle.build_tree(arities, indices, "z")
    atts = []
    for p, child in enumerate(root["children"], start=1):
        if child is not None:
            atts.append((p, lit2(*oracle.serialize(child))))
    return arities[0], atts


def total2(lit):
    """Arity of the total corolla of a level-2 element (its leaf count)."""
    arities, indices = split2(lit)
    return len(oracle.leaves_in_order(oracle.build_tree(arities, indices, "z")))


def apply_one2(lit, node_perms):
    """(target literal, leaf_perm, node_relabel) of a one-morphism.

    node_perms[t-1] sends the subtree at prong p of node t to prong
    node_perms[t-1][p-1].
    """
    arities, indices = split2(lit)
    root = oracle.build_tree(arities, indices, "s")
    before = [(n["tag"][1], p) for n, p in oracle.leaves_in_order(root)]
    leaf_at = {}
    for node in oracle.preorder(root):
        t = node["tag"][1]
        perm = node_perms[t - 1]
        moved = [None] * node["arity"]
        for p, child in enumerate(node["children"]):
            moved[perm[p] - 1] = child
            leaf_at[(t, perm[p] - 1)] = (t, p)
        node["children"] = moved
    target = lit2(*oracle.serialize(root))
    relabel = [0] * len(arities)
    for pos, node in enumerate(oracle.preorder(root), start=1):
        relabel[node["tag"][1] - 1] = pos
    after = [leaf_at[(n["tag"][1], p)] for n, p in oracle.leaves_in_order(root)]
    leaf_perm = [0] * len(before)
    for pos, leaf in enumerate(after, start=1):
        leaf_perm[before.index(leaf)] = pos
    return target, leaf_perm, relabel


def dot2(lit):
    """The DOT text the renderer documents for a canonical level-2 element."""
    arities, indices = split2(lit)
    root = oracle.build_tree(arities, indices, "n")
    lines = ["digraph element {"]

    def walk(node):
        t = node["tag"][1]
        name = "n%d" % t
        lines.append('  %s [shape=triangle,label="%d"];' % (name, t))
        for p, child in enumerate(node["children"], start=1):
            if child is None:
                leaf = "%s_l%d_%d" % (name, t, p)
                lines.append("  %s [shape=point];" % leaf)
                lines.append('  %s -> %s [label="%d"];' % (name, leaf, p))
            else:
                walk(child)
                lines.append('  %s -> n%d [label="%d"];' % (name, child["tag"][1], p))

    walk(root)
    lines.append("}")
    return "\n".join(lines)


def shuffle_ok(phi, psi, i, m_x, m_y):
    """Monotonicity and partition test of the position maps of x o_i y.

    phi must map {1..m_x} minus {i} and psi {1..m_y}, both strictly
    increasing, phi fixing every j < i, images partitioning 1..m_x+m_y-1.
    """
    if sorted(phi) != [j for j in range(1, m_x + 1) if j != i]:
        return False
    if sorted(psi) != list(range(1, m_y + 1)):
        return False
    pv = [phi[j] for j in sorted(phi)]
    sv = [psi[k] for k in sorted(psi)]
    if any(a >= b for a, b in zip(pv, pv[1:])) or any(a >= b for a, b in zip(sv, sv[1:])):
        return False
    if any(phi[j] != j for j in phi if j < i):
        return False
    return sorted(pv + sv) == list(range(1, m_x + m_y))
