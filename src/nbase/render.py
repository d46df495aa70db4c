"""ASCII and DOT renderings of low-level elements.

Levels 0..2 draw directly; a level-3 element renders as a tree of trees,
one block (or DOT cluster) per factor.  Higher levels are refused.
"""

from __future__ import annotations

from .errors import LevelMismatch
from .grammar import format_element
from .trees import to_tree


def render(x, fmt="ascii"):
    if fmt == "ascii":
        return render_ascii(x)
    if fmt == "dot":
        return render_dot(x)
    raise ValueError("format must be 'ascii' or 'dot'")


def render_ascii(x):
    if x.level == 0:
        return "*"
    if x.level == 1:
        return "corolla/%d %s" % (x.arity, "'" * x.arity)
    if x.level == 2:
        return "\n".join(_ascii_tree(x))
    if x.level == 3:
        lines = ["level-3 element %s" % format_element(x)]
        for t, f in enumerate(x.factors, start=1):
            idx = "" if t == 1 else " at slot %d" % x.indices[t - 2]
            lines.append("factor %d%s:" % (t, idx))
            lines.extend("  " + ln for ln in _ascii_tree(f))
        return "\n".join(lines)
    raise LevelMismatch("rendering is limited to levels <= 3")


def _ascii_tree(x):
    # an explicit stack of (node or None for a free prong, line prefix),
    # pushed right to left so that prongs pop left to right
    lines = []
    stack = [(to_tree(x), "")]
    while stack:
        node, prefix = stack.pop()
        if node is None:
            lines.append(prefix + "leaf")
            continue
        lines.append("%snode%d(%d)" % (prefix, node.tag, node.arity))
        child_prefix = prefix.replace("+-", "| ").replace("`-", "  ")
        for p in range(node.arity, 0, -1):
            branch = "`-" if p == node.arity else "+-"
            stack.append((node.children[p - 1], child_prefix + branch))
    return lines


def render_dot(x):
    if x.level == 0:
        return 'digraph element {\n  p [label="*"];\n}'
    if x.level == 1:
        lines = ["digraph element {", '  n1 [shape=triangle,label="%d"];' % x.arity]
        for p in range(1, x.arity + 1):
            lines.append('  n1_l%d [shape=point];' % p)
            lines.append("  n1 -> n1_l%d;" % p)
        lines.append("}")
        return "\n".join(lines)
    if x.level == 2:
        return "\n".join(["digraph element {"] + _dot_tree(x, "n") + ["}"])
    if x.level == 3:
        lines = ["digraph element {"]
        for t, f in enumerate(x.factors, start=1):
            lines.append("  subgraph cluster_%d {" % t)
            lines.append('    label="factor %d";' % t)
            lines.extend("  " + ln for ln in _dot_tree(f, "f%d" % t))
            lines.append("  }")
        lines.append("}")
        return "\n".join(lines)
    raise LevelMismatch("rendering is limited to levels <= 3")


def _dot_tree(x, prefix):
    # an explicit stack of nodes still to draw and lines still to emit; a
    # child's edge line is pushed under it, so it follows the child's subtree
    lines = []
    stack = [to_tree(x)]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            lines.append(node)
            continue
        name = "%s%d" % (prefix, node.tag)
        lines.append('  %s [shape=triangle,label="%d"];' % (name, node.tag))
        for p in range(node.arity, 0, -1):
            child = node.children[p - 1]
            if child is None:
                leaf = "%s_l%d_%d" % (name, node.tag, p)
                stack.append('  %s -> %s [label="%d"];' % (name, leaf, p))
                stack.append("  %s [shape=point];" % leaf)
            else:
                stack.append('  %s -> %s%d [label="%d"];' % (name, prefix, child.tag, p))
                stack.append(child)
    return lines
