"""Ordinal notations below the first subscript-hierarchy fixed point, and
the maps between elements and ordinals.

Notation: an ordinal is a nonincreasing sum of terms, each either 1 or
phi_a(b) in normal form (b below the value, subscripts absorbed).  The
subscript convention is shifted so that phi_1(b) is the omega power
omega^(1+b); for subscripts >= 2 the shift is invisible.

Evaluation is one reverse pass over the factor tree (``trees.to_tree``,
the tree of iterated head decompositions) at every level, children before
parents: a factor's children are the factors grafted into its slots.  At
level n a factor is evaluated one level down, with each occupied slot
bound to the next function in the hierarchy applied (shift-adjusted) to
its child's value, hier(n - 1, .), and each free slot worth 1; at level 2
a free prong contributes 1 and a subtree s contributes omega^(eval(s)).
So the recursion goes down one level a call, as deep as the element's
level.  A per-slot value bound to a factor stands in for that factor's own
evaluation: it is summed with what its occupied slots are bound to, and
its free slots add nothing; encode never builds anything but single-use
carriers, so the value appears exactly once.

encode inverts the default evaluation constructively, one level at a
time: each normal-form term becomes a column, a prong of the level-1
corolla that receives, at the level one above the term's subscript, the
attachment encoding the term's argument, with single-factor carriers
holding its slot at the levels in between.  A column contributes exactly
its term.  Each level is one ``walk``: the pieces (attachments and
carriers) hang at their anchors in the child lists of the embedded level
below (``elements._hang``), and the walk says where each piece's factors,
and so the requests for the next level, landed.  A level of more than
``MAX_FACTORS`` factors is refused before its walk (SizeBound).  encode is
implemented for levels 1..4, which covers every notation below the level-4
image bound.
"""

from __future__ import annotations

import re

from .elements import (
    MAX_ARITY,
    _hang,
    corolla,
    embed,
    total_G,
)
from .errors import (
    LevelMismatch,
    NotImplementedLevel,
    OutOfRange,
    ParseError,
    SizeBound,
)
from .trees import _lists


# -- notation ---------------------------------------------------------------

class Ordinal:
    """Sum of terms, nonincreasing; a term is None (the ordinal 1) or a
    pair (a, b) of Ordinals standing for phi_a(b).

    Equality is ``cmp`` and the hash is that of the literal, so neither
    recurses per nesting level; normal forms are unique, so equal values
    have one literal.  Ordinals are immutable: ``ONE`` and ``ZERO`` and
    the summands of a sum are shared, so setting or deleting ``terms``
    raises AttributeError.  Pickle and copy rebuild an equal ordinal.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        _set_terms(self, terms)

    def _refuse(self, *args):
        raise AttributeError("ordinals are immutable")

    __setattr__ = __delattr__ = _refuse

    def __reduce__(self):
        return Ordinal, (self.terms,)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, Ordinal) and cmp(self, other) == 0

    def __hash__(self):
        return hash(format_ordinal(self))

    def __repr__(self):
        return "<ord %s>" % format_ordinal(self)


_set_terms = Ordinal.terms.__set__


# cmp recurses once per nesting level of subscripts (parsing, formatting
# and sums do not); the parser raises SizeBound when a literal opens more
# phi( and w^( frames than this at once
MAX_NESTING = 256

# a finite ordinal is a tuple of that many terms, bounded as a level-1 arity
# is; an integer literal with more significant digits is refused unread
MAX_DIGITS = len(str(MAX_ARITY))

# encode raises SizeBound before building a level of more factors than
# this; a sum of N terms nested d deep needs about N * d
MAX_FACTORS = 1000

_ORD_TOKEN = re.compile(r"\d+|phi\(|\S")

ZERO = Ordinal(())
ONE = Ordinal((None,))


def from_int(n):
    if n.__class__ is not int:  # bools and floats too: (None,) * n needs an int
        raise OutOfRange("a finite ordinal needs an int count, got %r" % (n,))
    if n < 0:
        raise OutOfRange("ordinals are nonnegative")
    if n > MAX_ARITY:
        raise SizeBound("finite ordinals are bounded by %d" % MAX_ARITY)
    return Ordinal((None,) * n)


def to_int(x):
    if any(t is not None for t in x.terms):
        raise OutOfRange("not a finite ordinal: %s" % format_ordinal(x))
    return len(x.terms)


def cmp(x, y):
    """Total order on notations: -1, 0, or 1."""
    return _cmp_sums(x.terms, y.terms)


def _cmp_sums(xs, ys):
    # Terms phi_a(b) and phi_c(d) compare by subscripts, then by one pair
    # of sums: b with d, b with the larger-subscript term, or (negated) d
    # with the other term.  A nonzero result there decides every enclosing
    # comparison, so the argument sums are compared in this one loop, with
    # a stack of (xs, ys, k, sign) for the enclosing sums, resumed on a tie;
    # only subscripts recurse.
    stack = []
    k = 0
    sign = 1
    while True:
        if k == len(xs) or k == len(ys):
            if len(xs) != len(ys):
                return sign if len(xs) > len(ys) else -sign
            if not stack:
                return 0
            xs, ys, k, sign = stack.pop()
            continue
        s, t = xs[k], ys[k]
        k += 1
        if s is None or t is None:
            if s is not t:
                return -sign if s is None else sign
            continue
        (a, b), (c, d) = s, t
        ac = cmp(a, c)
        stack.append((xs, ys, k, sign))
        k = 0
        if ac == 0:
            xs, ys = b.terms, d.terms
        elif ac < 0:
            xs, ys = b.terms, (t,)
        else:
            xs, ys, sign = d.terms, (s,), -sign


def add(x, y):
    """Normal-form sum: trailing terms of x below y's lead are absorbed."""
    if x.terms == (None,):  # 1 + y: y absorbs the 1 when its lead is infinite
        if not y.terms:
            return x
        return y if y.terms[0] is not None else Ordinal((None,) + y.terms)
    return _sum((x, y))


def _sum(parts):
    """Normal-form sum of ordinals, left to right, in one list of terms.

    Each summand pops the trailing terms below its lead and extends the
    list in place, so a sum costs one pass however many summands it has.
    """
    nonzero = [y for y in parts if y.terms]
    if len(nonzero) == 1:
        return nonzero[0]
    terms = []
    for y in nonzero:
        lead = y.terms[0]
        if lead is not None:    # a 1 absorbs nothing; every term absorbs a 1
            while terms and (terms[-1] is None
                             or _cmp_sums((terms[-1],), (lead,)) < 0):
                terms.pop()
        terms.extend(y.terms)
    return Ordinal(tuple(terms))


def phi(a, b):
    """The normal term phi_a(b); absorbs when b already dominates.

    phi_1 is the shifted omega power; a must be at least 1.
    """
    if not a.terms:
        raise OutOfRange("phi subscript must be >= 1")
    if len(b.terms) == 1 and b.terms[0] is not None:
        c, _d = b.terms[0]
        if cmp(c, a) > 0:
            return b
    return Ordinal((((a, b)),))


def pred1(g):
    """The unique g' with 1 + g' = g (g must be >= 1)."""
    if g.is_zero():
        raise OutOfRange("no predecessor under 1+x for 0")
    if g.terms[0] is None:
        return Ordinal(g.terms[1:])
    return g


def omega_pow(g):
    """omega^g through the shifted first function: phi_1(g') with 1+g' = g."""
    if g.is_zero():
        return ONE
    return phi(ONE, pred1(g))


def hier(k, g):
    """The k-th hierarchy function applied shift-adjusted: phi_k(g') with
    1 + g' = g.  For k = 1 this is the omega power; higher k absorb their
    own fixed points the same way."""
    if g.is_zero():
        raise OutOfRange("attachment values are >= 1")
    return phi(ONE if k == 1 else from_int(k), pred1(g))


# -- formatting and parsing --------------------------------------------------

def format_ordinal(x):
    """Literal of a notation, by an explicit stack of ordinals and text."""
    out = []
    stack = [x]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif item.is_zero():
            out.append("0")
        else:
            pieces = []
            for t in item.terms:
                if t is not None:
                    pieces += [*_term_pieces(t), "+"]
            ones = item.terms.count(None)
            if ones:
                pieces.append(str(ones))
            else:
                pieces.pop()
            stack.extend(reversed(pieces))
    return "".join(out)


def _term_pieces(t):
    a, b = t
    if cmp(a, ONE) == 0:
        exponent = add(ONE, b)
        if cmp(exponent, ONE) == 0:
            return ("w",)
        return ("w^(", exponent, ")")
    return ("phi(", a, ",", b, ")")


def parse_ordinal(text):
    """Parse `0 | term (+ term)*` with term `nat | w | w^(ord) | phi(a,b)`.

    One pass over the tokens; open `phi(` and `w^(` frames wait on a stack
    with the terms of the sum that encloses them.
    """
    tokens = _ORD_TOKEN.findall(text)
    tokens.append("")  # every path that reads it raises or returns
    take = iter(tokens).__next__
    stack = []   # open frames: [token that ends the argument, first
    #              argument of a phi or None, terms of the enclosing sum]
    terms = []   # the terms so far of the innermost open sum
    while True:
        tok = take()
        if tok == "phi(" or tok == "w" and (after := take()) == "^":
            if tok == "w" and take() != "(":
                raise ParseError("expected '(' after 'w^' in %r" % text)
            if len(stack) == MAX_NESTING:
                raise SizeBound("ordinal literal is nested deeper than %d"
                                % MAX_NESTING)
            stack.append(["," if tok == "phi(" else ")", None, terms])
            terms = []
            continue
        if tok == "w":
            term, tok = omega_pow(ONE), after
        elif tok[:1].isdecimal():
            digits = tok.lstrip("0")
            if len(digits) > MAX_DIGITS:
                raise SizeBound("integer of more than %d digits; finite"
                                " ordinals are bounded by %d"
                                % (MAX_DIGITS, MAX_ARITY))
            term, tok = from_int(int(digits or "0")), take()
        else:
            raise ParseError("unexpected %s in ordinal literal %r"
                             % (repr(tok) if tok else "end", text))
        # a term is complete: add it to its sum, closing frames until a
        # "+" or a phi's "," continues with another term
        while True:
            terms.append(term)
            if tok == "+":
                break
            value = _sum(terms)
            if not stack and not tok:
                return value
            if not stack or tok != stack[-1][0]:
                raise ParseError("unexpected %s in ordinal literal %r"
                                 % (repr(tok) if tok else "end", text))
            if tok == ",":
                stack[-1][:2] = ")", value
                terms = []
                break
            _end, first, terms = stack.pop()
            term = omega_pow(value) if first is None else phi(first, value)
            tok = take()


# -- evaluation ---------------------------------------------------------------

def eval_phi2(z):
    """Explicit level-2 value: walk the head corolla's prongs left to right;
    a free prong adds 1, a subtree s adds omega^(eval_phi2(s))."""
    if z.level != 2:
        raise NotImplementedLevel("eval_phi2 needs a level-2 element")
    return _walk(z, {}, 2)


def eval_phin(z, alphas=None):
    """Hierarchy value of an element, optional per-slot arguments.

    With default arguments this extends the explicit level-2 walk: an
    attachment at a slot contributes hier(level-1, value of the attachment)
    at that slot's position, a free slot contributes 1.  A non-default
    argument rides its slot's factor and stands in for that factor's own
    evaluation (at level 1 the arguments are simply summed).
    """
    if z.level < 1:
        raise NotImplementedLevel("evaluation needs level >= 1")
    if alphas is not None:
        if len(alphas) != z.m:
            raise OutOfRange("need one argument per slot (%d)" % z.m)
        bindings = {i: a for i, a in enumerate(alphas, start=1)
                    if cmp(a, ONE) != 0}
    else:
        bindings = {}
    return _walk(z, bindings, z.level)


def _walk(z, bindings, level):
    if level == 1:
        if not bindings:
            return Ordinal((None,) * z.arity)
        return _sum([bindings.get(p, ONE) for p in range(1, z.arity + 1)])
    # factors in reverse order, so a factor's children are done before it;
    # each occupied slot is bound to hier(level - 1, value of its child)
    children = _lists(z)
    values = [None] * z.m
    for t in range(z.m, 0, -1):
        slots = {r: hier(level - 1, values[c - 1])
                 for r, c in enumerate(children[t - 1], start=1) if c > 0}
        if t in bindings:   # a bound factor's free slots add nothing
            values[t - 1] = _sum([bindings[t], *slots.values()])
        else:
            values[t - 1] = _walk(z.factors[t - 1], slots, level - 1)
    return values[0]


# -- encoding -----------------------------------------------------------------

def _phi_bound(n):
    return phi(from_int(n), ZERO)


def encode(beta, n):
    """An element whose default evaluation is beta (1 <= beta < phi_n(0)).

    Constructive: each term of beta becomes one column of the result.
    Implemented for levels 1 through 4.
    """
    if n.__class__ is not int:  # True would be read as level 1
        raise LevelMismatch("encode needs an int level, got %r" % (n,))
    if n < 1:
        raise OutOfRange("level must be >= 1")
    if n > 4:
        raise NotImplementedLevel("encode is implemented for levels 1..4")
    if beta.is_zero():
        raise OutOfRange("0 is not a value of the evaluation (sums are nonempty)")
    if cmp(beta, _phi_bound(n)) >= 0:
        raise OutOfRange("%s is not below phi_%d(0)" % (format_ordinal(beta), n))
    z, left = _assemble(beta, n, n)
    if left:  # a guard: the _phi_bound refusal above leaves no input that gets here
        raise LevelMismatch("%d requests left above level %d" % (len(left), n))
    return z


def _term_split(t, n):
    """(subscript as int, recursion value 1+b) of a non-1 term below phi_n(0)."""
    a, b = t
    a_int = to_int(a)
    if a_int >= n:  # a guard: encode's _phi_bound refusal leaves no input that gets here
        raise OutOfRange("term subscript %d at level %d" % (a_int, n))
    return a_int, add(ONE, b)


def _assemble(gamma, j, n):
    """Level-j element whose walk is gamma, plus its requests one level up.

    A request (anchor, column) names a factor of the element, which is a
    slot of the next level's total.  A column (level, attachment, the
    attachment's own requests) stands for one term with subscript
    level - 1.  Level 1 is a corolla with one prong per term; each level
    above embeds the one below and hangs, at every anchor, the column's
    attachment if the column belongs there, else a single-factor carrier
    that keeps the slot open and passes the request up.  Piece k's factor
    t is node 1 + (factors of the pieces before it) + t of the one walk.
    """
    terms = gamma.terms
    reqs = []
    for p in range(len(terms), 0, -1):
        if terms[p - 1] is not None:
            a_int, delta = _term_split(terms[p - 1], n)
            reqs.append((p, (a_int + 1, *_assemble(delta, a_int + 1, n))))
    elem = corolla(len(terms))
    for i in range(2, j + 1):
        pieces, out, base = [], [], 1
        for anchor, col in reqs:
            level, att, att_reqs = col
            if level > i:   # a carrier, whose one factor passes col up
                for _ in range(level - i + 1):
                    att = total_G(att)
                att, att_reqs = embed(att), [(1, col)]
            pieces.append((anchor, att))
            out += [(base + pos, c) for pos, c in att_reqs]
            base += att.m
        if base > MAX_FACTORS:
            raise SizeBound("encoding needs %d factors at level %d, more than"
                            " %d" % (base, i, MAX_FACTORS))
        # with nothing to hang, the walk would only rebuild the embedding
        elem, reached = _hang(elem, pieces) if pieces else (embed(elem), {})
        reqs = [(reached[t], c) for t, c in out]
    return elem, reqs


# -- misc ---------------------------------------------------------------------

def image_sweep(n, max_factors, max_arity):
    """Set of evaluation values over the bounded enumeration."""
    from .enumeration import _enumerate

    return set(map(eval_phin, _enumerate(n, max_factors, max_arity, 1)))
