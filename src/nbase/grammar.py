"""Textual and JSON forms of elements.

Grammar (whitespace-insensitive):

    elem0 := "*"
    elem1 := positive decimal integer
    elemN := "[" elem{N-1} ("," elem{N-1})* ["|" [int ("," int)* [","]]] "]"

So `[4]` and `[4|]` are the same literal, the index list may end in a
comma, and numbers may have leading zeros.  The level is either supplied by
the caller or inferred from bracket depth.  Parsing is one syntax pass over
the tokens, then one build pass, so a malformed literal is reported as a
ParseError before any level or validation error.  The unital layer's
extension (`units.parse_relement`) reads "0" (the level-1 zero) and "!e"
(the level-2 eraser) itself and passes allow_zero for arity-0 corollas.
JSON mirror: {"level": n, "factors": [...], "indices": [...]}.
"""

from __future__ import annotations

import re

from .elements import POINT, GammaSequence, PlainElement, corolla
from .errors import LevelMismatch, ParseError, SizeBound

# the builder, the formatter and the JSON reader recurse once per level; the
# parser's bracket stack, or a JSON element's level, above this raises
# SizeBound before any recursion
MAX_NESTING = 256

_FOREIGN = re.compile(r"[^\s\d\[\],|*]")
_TOKEN = re.compile(r"\d+|[\[\],|*]")
# every token but a number is a substring of this, the end marker "" too
_NOT_NUMBER = "[],|*"


def _parse(text):
    """The syntax pass: (depth, tree) of a literal, its level not yet fixed.

    A tree is "*", an int, or a (factors, indices) pair of lists.  Open
    brackets are [factors, depth of the deepest factor] frames on a stack.
    """
    bad = _FOREIGN.search(text)
    if bad:
        raise ParseError("unexpected character %r at offset %d"
                         % (bad.group(), bad.start()))
    tokens = _TOKEN.findall(text)
    tokens.append("")  # every path that reads it raises or returns
    take = iter(tokens).__next__
    stack = []
    while True:
        tok = take()
        if tok == "[":
            if len(stack) == MAX_NESTING:
                raise SizeBound("element literal is nested deeper than %d"
                                % MAX_NESTING)
            stack.append([[], 0])
            continue
        if tok == "*":
            tree, depth = "*", 0
        elif tok in _NOT_NUMBER:
            raise ParseError("cannot parse element at token %r" % (tok or None,))
        else:
            tree, depth = int(tok), 1
        # an element is complete: add it to its bracket, closing brackets
        # until one continues with another factor
        while stack:
            frame = stack[-1]
            frame[0].append(tree)
            if depth > frame[1]:
                frame[1] = depth
            tok = take()
            if tok == ",":
                break
            indices = []
            if tok == "|":
                tok = take()
                while tok not in _NOT_NUMBER:
                    indices.append(int(tok))
                    tok = take()
                    if tok != ",":
                        break
                    tok = take()
            if tok != "]":
                if not tok:
                    raise ParseError("unexpected end of input")
                raise ParseError("expected ']', found %r"
                                 % (tok if tok in _NOT_NUMBER else int(tok),))
            stack.pop()
            tree, depth = (frame[0], indices), frame[1] + 1
        else:
            if take():
                raise ParseError("trailing input after element literal")
            return depth, tree


def _build(tree, level, allow_zero, raw=False):
    """Lift a syntax tree to a PlainElement at the requested level."""
    if level == 0:
        if tree != "*":
            raise LevelMismatch("expected the point at level 0")
        return POINT
    if level == 1:
        if tree == "*":
            raise LevelMismatch("the point is not a level-1 element")
        if not isinstance(tree, int):
            raise LevelMismatch("expected an integer at level 1")
        return corolla(tree, allow_zero=allow_zero)
    if not isinstance(tree, tuple):
        raise LevelMismatch("expected a bracketed element at level %d" % level)
    factors, indices = tree
    built = [_build(f, level - 1, allow_zero) for f in factors]
    if raw:
        return GammaSequence(level, tuple(built), tuple(indices)).validate()
    return PlainElement(level, factors=built, indices=indices)


def parse_element(text, level=None, allow_zero=False, raw=False):
    """Parse an element literal; infer the level from nesting if not given.

    With raw=True the indices need not be sorted and a GammaSequence is
    returned (for the normalize entry point).
    """
    depth, tree = _parse(text)
    if level is None:
        level = depth
    if level < depth:
        raise LevelMismatch(
            "literal has nesting depth %d, deeper than level %d" % (depth, level))
    if raw and level < 2:
        raise LevelMismatch("raw sequences live at level >= 2")
    return _build(tree, level, allow_zero, raw=raw)


def format_element(x):
    """Canonical literal of an element or raw sequence (inverse of parse_element)."""
    if x.level == 0:
        return "*"
    if x.level == 1:
        return str(x.arity)
    inner = ",".join(format_element(f) for f in x.factors)
    if x.indices:
        return "[%s|%s]" % (inner, ",".join(str(i) for i in x.indices))
    return "[%s|]" % inner


def element_to_json(x):
    if x.level == 0:
        return {"level": 0}
    if x.level == 1:
        return {"level": 1, "arity": x.arity}
    return {"level": x.level,
            "factors": [element_to_json(f) for f in x.factors],
            "indices": list(x.indices)}


def element_from_json(obj, allow_zero=False):
    """Element of a JSON mirror.

    Every factor must be one level below its element, so the recursion is
    as deep as the top level, which may not exceed MAX_NESTING.
    """
    level = _json_field(obj, "level", int)
    if level < 0:
        raise ParseError("JSON element of negative level %d" % level)
    if level > MAX_NESTING:
        raise SizeBound("JSON element of level %d, bound is %d"
                        % (level, MAX_NESTING))
    return _from_json(obj, level, allow_zero)


def _from_json(obj, level, allow_zero):
    found = _json_field(obj, "level", int)
    if found != level:
        raise LevelMismatch("expected a level-%d JSON element, found level %d"
                            % (level, found))
    if level == 0:
        return POINT
    if level == 1:
        return corolla(_json_field(obj, "arity", int), allow_zero=allow_zero)
    factors = [_from_json(f, level - 1, allow_zero)
               for f in _json_field(obj, "factors", list)]
    return PlainElement(level, factors=factors,
                        indices=_json_field(obj, "indices", list))


def _json_field(obj, key, kind):
    value = obj.get(key) if isinstance(obj, dict) else None
    if type(value) is not kind:
        raise ParseError("expected a JSON object with %s %r" % (kind.__name__, key))
    return value
