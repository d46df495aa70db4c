"""ASCII and DOT renderings of low-level elements.

Levels 0..2 draw directly; a level-3 element renders as a tree of trees,
one block (or DOT cluster) per factor.  Higher levels are refused.  A
level-2 tree is drawn straight from its child lists (``trees.to_tree``):
node t has ``len(children[t - 1])`` prongs, and a negative entry is a leaf.
"""

from __future__ import annotations

from .errors import LevelMismatch, UnknownStrategy
from .grammar import format_element
from .trees import _lists


def render(x, fmt="ascii"):
    if fmt == "ascii":
        return render_ascii(x)
    if fmt == "dot":
        return render_dot(x)
    raise UnknownStrategy("format must be 'ascii' or 'dot', got %r" % (fmt,))


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
    # an explicit stack of (child-list entry, line prefix), pushed right to
    # left so that prongs pop left to right; a negative entry is a leaf
    children = _lists(x)
    lines = []
    stack = [(1, "")]
    while stack:
        t, prefix = stack.pop()
        if t < 0:
            lines.append(prefix + "leaf")
            continue
        entries = children[t - 1]
        lines.append("%snode%d(%d)" % (prefix, t, len(entries)))
        child_prefix = prefix.replace("+-", "| ").replace("`-", "  ")
        for p in range(len(entries), 0, -1):
            branch = "`-" if p == len(entries) else "+-"
            stack.append((entries[p - 1], child_prefix + branch))
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
    children = _lists(x)
    lines = []
    stack = [1]
    while stack:
        t = stack.pop()
        if isinstance(t, str):
            lines.append(t)
            continue
        name = "%s%d" % (prefix, t)
        lines.append('  %s [shape=triangle,label="%d"];' % (name, t))
        entries = children[t - 1]
        for p in range(len(entries), 0, -1):
            c = entries[p - 1]
            if c < 0:
                leaf = "%s_l%d_%d" % (name, t, p)
                stack.append('  %s -> %s [label="%d"];' % (name, leaf, p))
                stack.append("  %s [shape=point];" % leaf)
            else:
                stack.append('  %s -> %s%d [label="%d"];' % (name, prefix, c, p))
                stack.append(c)
    return lines
