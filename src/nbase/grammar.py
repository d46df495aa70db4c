"""Textual and JSON forms of elements.

Grammar (whitespace-insensitive):

    elem0 := "*"
    elem1 := positive decimal integer
    elemN := "[" elem{N-1} ("," elem{N-1})* ["|" int ("," int)*] "]"

The level is either supplied by the caller or inferred from bracket depth.
The extension used by the unital layer adds "0" at level 1 and "!e" for the
level-2 eraser.  JSON mirror: {"level": n, "factors": [...], "indices": [...]}.
"""

from __future__ import annotations

from .elements import POINT, GammaSequence, PlainElement, corolla
from .errors import LevelMismatch, ParseError, SizeBound

# the parser and the builder recurse once per bracket level; a literal
# nested deeper than this raises SizeBound before either starts
MAX_NESTING = 256


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "[],|*":
            tokens.append(c)
            i += 1
        elif c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(int(text[i:j]))
            i = j
        elif text[i:i + 2] == "!e":
            tokens.append("!e")
            i += 2
        else:
            raise ParseError("unexpected character %r at offset %d" % (c, i))
    return tokens


class _Parser:
    def __init__(self, tokens, allow_zero=False):
        self.tokens = tokens
        self.pos = 0
        self.allow_zero = allow_zero

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        if expected is not None and tok != expected:
            raise ParseError("expected %r, found %r" % (expected, tok))
        self.pos += 1
        return tok

    def parse_raw(self):
        """Parse to (depth, tree) without fixing the level."""
        tok = self.peek()
        if tok == "*":
            self.take()
            return 0, "*"
        if isinstance(tok, int):
            self.take()
            return 1, tok
        if tok == "[":
            self.take()
            factors = []
            depths = []
            d, f = self.parse_raw()
            factors.append(f)
            depths.append(d)
            while self.peek() == ",":
                self.take()
                d, f = self.parse_raw()
                factors.append(f)
                depths.append(d)
            indices = []
            if self.peek() == "|":
                self.take()
                while isinstance(self.peek(), int):
                    indices.append(self.take())
                    if self.peek() == ",":
                        self.take()
                    else:
                        break
            self.take("]")
            depth = max(depths) + 1
            return depth, ("node", factors, depths, indices)
        raise ParseError("cannot parse element at token %r" % (tok,))


def _build(tree, depth, level, allow_zero, raw=False):
    """Lift the parse tree to a PlainElement at the requested level."""
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
    if not (isinstance(tree, tuple) and tree[0] == "node"):
        raise LevelMismatch("expected a bracketed element at level %d" % level)
    _, factors, depths, indices = tree
    built = [_build(f, d, level - 1, allow_zero) for f, d in zip(factors, depths)]
    if raw:
        return GammaSequence(level, tuple(built), tuple(indices)).validate()
    return PlainElement(level, factors=built, indices=indices)


def _check_nesting(text):
    depth = 0
    for c in text:
        if c == "[":
            depth += 1
            if depth > MAX_NESTING:
                raise SizeBound("element literal is nested deeper than %d"
                                % MAX_NESTING)
        elif c == "]":
            depth -= 1


def parse_element(text, level=None, allow_zero=False, raw=False):
    """Parse an element literal; infer the level from nesting if not given.

    With raw=True the indices need not be sorted and a GammaSequence is
    returned (for the normalize entry point).
    """
    if text.count("[") > MAX_NESTING:
        _check_nesting(text)
    tokens = _tokenize(text)
    parser = _Parser(tokens, allow_zero=allow_zero)
    depth, tree = parser.parse_raw()
    if parser.pos != len(tokens):
        raise ParseError("trailing input after element literal")
    if level is None:
        level = depth
    if level < depth:
        raise LevelMismatch(
            "literal has nesting depth %d, deeper than level %d" % (depth, level))
    return _build(tree, depth, level, allow_zero, raw=raw)


def format_element(x):
    """Canonical literal of an element (inverse of parse_element)."""
    if isinstance(x, GammaSequence):
        inner = ",".join(format_element(f) for f in x.factors)
        if x.indices:
            return "[%s|%s]" % (inner, ",".join(str(i) for i in x.indices))
        return "[%s|]" % inner
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
    level = obj["level"]
    if level == 0:
        return POINT
    if level == 1:
        return corolla(obj["arity"], allow_zero=allow_zero)
    factors = [element_from_json(f, allow_zero) for f in obj["factors"]]
    return PlainElement(level, factors=factors, indices=obj["indices"])
