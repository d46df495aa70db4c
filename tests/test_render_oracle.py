"""Level-2 and level-3 renderings against drawings made here.

Each element is replayed into an ``oracle_trees`` tree from its arities
and graft indices, and its ASCII and DOT texts are drawn from the nested
dicts by recursion, with no use of ``nbase.trees``.
"""

from oracle_trees import build_tree

from nbase.enumeration import enumerate_elements
from nbase.grammar import format_element
from nbase.render import render


def _tree(x):
    return build_tree([f.arity for f in x.factors], list(x.indices), "x")


def _ascii(x):
    lines = []

    def draw(node, head, tail):
        if node is None:
            lines.append(head + "leaf")
            return
        lines.append("%snode%d(%d)" % (head, node["tag"][1], node["arity"]))
        for p, child in enumerate(node["children"], start=1):
            last = p == node["arity"]
            draw(child, tail + ("`-" if last else "+-"),
                 tail + ("  " if last else "| "))

    draw(_tree(x), "", "")
    return lines


def _dot(x, prefix):
    lines = []

    def draw(node):
        t = node["tag"][1]
        name = "%s%d" % (prefix, t)
        lines.append('  %s [shape=triangle,label="%d"];' % (name, t))
        for p, child in enumerate(node["children"], start=1):
            if child is None:
                leaf = "%s_l%d_%d" % (name, t, p)
                lines.append("  %s [shape=point];" % leaf)
                lines.append('  %s -> %s [label="%d"];' % (name, leaf, p))
            else:
                draw(child)
                lines.append('  %s -> %s%d [label="%d"];'
                             % (name, prefix, child["tag"][1], p))

    draw(_tree(x))
    return lines


def test_level2_renderings_match_oracle_drawings():
    elements = enumerate_elements(2, 4, 3)
    assert len(elements) > 1000
    for x in elements:
        assert render(x, "ascii") == "\n".join(_ascii(x))
        assert render(x, "dot") == "\n".join(
            ["digraph element {"] + _dot(x, "n") + ["}"])


def test_level3_renderings_match_oracle_drawings():
    for x in enumerate_elements(3, 2, 3):
        ascii_lines = ["level-3 element %s" % format_element(x)]
        dot_lines = ["digraph element {"]
        for t, f in enumerate(x.factors, start=1):
            at = "" if t == 1 else " at slot %d" % x.indices[t - 2]
            ascii_lines.append("factor %d%s:" % (t, at))
            ascii_lines += ["  " + ln for ln in _ascii(f)]
            dot_lines += ["  subgraph cluster_%d {" % t,
                          '    label="factor %d";' % t]
            dot_lines += ["  " + ln for ln in _dot(f, "f%d" % t)]
            dot_lines.append("  }")
        assert render(x, "ascii") == "\n".join(ascii_lines)
        assert render(x, "dot") == "\n".join(dot_lines + ["}"])
