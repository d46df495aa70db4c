"""Textual and JSON forms of elements.

Grammar (whitespace-insensitive):

    elem0 := "*"
    elem1 := positive decimal integer
    elemN := "[" elem{N-1} ("," elem{N-1})* ["|" [int ("," int)* [","]]] "]"

So `[4]` and `[4|]` are the same literal, the index list may end in a
comma, and numbers may have leading zeros.  The level is the caller's or
the nesting depth: the most brackets around a number, plus one, or around
the point.  One pass over the tokens builds each element as its bracket
closes.  Of several faults the caller sees, by class: a ParseError (or the
SizeBound of the nesting or of a number too long for int()), then a
LevelMismatch for a depth other than the level passed, then one for raw
below level 2, then the first error of building, unless a leaf up to it is
at a wrong level (a number under fewer brackets than the deepest, or the
point in brackets), which is a LevelMismatch.
`units.parse_relement` reads "0" (the level-1 zero) and "!e" (the level-2
eraser) itself and passes allow_zero for arity-0 corollas.
JSON mirror: {"level": n, "factors": [...], "indices": [...]}.
"""

from __future__ import annotations

import re
import sys

from .elements import POINT, GammaSequence, PlainElement, corolla
from .errors import LevelMismatch, NBaseError, ParseError, SizeBound

# the formatter and the JSON reader recurse once per level; the parser's
# bracket stack, or a JSON element's level, above this raises SizeBound, so
# every element they meet is within the recursion limit
MAX_NESTING = 256

_FOREIGN = re.compile(r"[^\s\d\[\],|*]")
_TOKEN = re.compile(r"\d+|[\[\],|*]")
# every token but a number is a substring of this, the end marker "" too
_NOT_NUMBER = "[],|*"


def parse_element(text, level=None, allow_zero=False, raw=False):
    """Parse an element literal; infer the level from nesting if not given.

    With raw=True the indices need not be sorted and a GammaSequence is
    returned (for the normalize entry point).
    """
    bad = _FOREIGN.search(text)
    if bad:
        raise ParseError("unexpected character %r at offset %d"
                         % (bad.group(), bad.start()))
    tokens = _TOKEN.findall(text)
    tokens.append("")  # every path that reads it raises or returns
    take = iter(tokens).__next__
    stack = []  # the factors read so far in each open bracket
    depth = 0
    failed = None  # the first building error; building stops there
    try:
        while True:
            tok = take()
            if tok == "[":
                if len(stack) == MAX_NESTING:
                    raise SizeBound("element literal is nested deeper than %d"
                                    % MAX_NESTING)
                stack.append([])
                continue
            if tok == "*":
                x, height = POINT, len(stack)
            elif tok in _NOT_NUMBER:
                raise ParseError("cannot parse element at token %r" % (tok or None,))
            else:
                x, height = int(tok), len(stack) + 1
                if failed is None:
                    try:
                        x = corolla(x, allow_zero=allow_zero)
                    except NBaseError as exc:
                        failed, lowest = exc, _lowest(stack, height)
            if height > depth:
                depth = height
            # an element is complete: add it to its bracket, closing brackets
            # until one continues with another factor
            while stack:
                factors = stack[-1]
                factors.append(x)
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
                if failed is None:
                    n = factors[0].level + 1
                    try:
                        x = (GammaSequence(n, tuple(factors), indices).validate()
                             if raw and len(stack) == 1 else
                             PlainElement(n, factors=factors, indices=indices))
                    except NBaseError as exc:
                        failed, lowest = exc, _lowest(stack, depth)
                stack.pop()
            else:
                if take():
                    raise ParseError("trailing input after element literal")
                break
    except ValueError:
        # int() of the current token: Python converts at most
        # sys.get_int_max_str_digits() digits, and every other step of the
        # scan raises only NBaseError
        raise SizeBound("number of %d digits in element literal, more than"
                        " the %d Python converts"
                        % (len(tok), sys.get_int_max_str_digits())) from None
    if level is None:
        level = depth
    elif level != depth:
        raise LevelMismatch("literal has nesting depth %d, not level %d" % (depth, level))
    if raw and level < 2:
        raise LevelMismatch("raw sequences live at level >= 2")
    if failed is not None:
        if lowest < depth:
            raise LevelMismatch("literal of nesting depth %d has a leaf at another level" % depth)
        raise failed
    return x


def _lowest(stack, height):
    """Least leaf height up to here: height, or b + k for a level-k factor
    inside b open brackets (0 for the point, wrong inside any bracket)."""
    return min([height] + [b + f.level if f.level else 0
                           for b, factors in enumerate(stack, 1) for f in factors])


def format_element(x):
    """Canonical literal of an element or raw sequence (inverse of parse_element)."""
    if x.level == 0:
        return "*"
    if x.level == 1:
        return str(x.arity)
    return _head(map(format_element, x.factors)) + _tail(x.indices)


# _head and _tail are the one writer of a literal, in the two halves that
# _literal_key keeps apart
def _head(factor_literals):
    return "[" + ",".join(factor_literals) + "|"


def _tail(indices):
    return ",".join(map(str, indices)) + "]"


class _Written(dict):
    """Each key's value, written by ``write`` on its first read."""

    __slots__ = ("write",)

    def __init__(self, write):
        self.write = write

    def __missing__(self, key):
        self[key] = value = self.write(key)
        return value


def _literal_key():
    """A fresh sort key: format_element of a level >= 2 element, from its
    two halves, each written once per distinct factor or index tuple (and
    each factor's literal once) for the life of the key.  A pool's elements
    share few tuples: (2, 5, 3) has 14,664 elements and 363 factor tuples."""
    literals = _Written(format_element)
    heads = _Written(lambda factors: _head(map(literals.__getitem__, factors)))
    tails = _Written(_tail)
    return lambda x: heads[x.factors] + tails[x.indices]


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
