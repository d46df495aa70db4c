"""Units, the arity-0 extension of level 1, and level-2 degeneracies.

The unit on a shape y is the single-factor element [y|]; composing with it
on either side is the identity.  The recursive-unit layer extends level 1
to arities >= 0 and adds two level-2 degeneracies:

* the zero (the arity-0 corolla carried up): plugging it at a prong caps
  that prong, executed on the spot, so the receiving corolla loses a prong;
* the eraser: plugging it into an arity-1 factor deletes that factor
  (the lozenge) from the element.

Executing the plugs keeps the extended elements in bijection with the plain
ones, which check_runital_bijection verifies at small bounds.
"""

from __future__ import annotations

from typing import NamedTuple

from .elements import PlainElement, compose, corolla, embed, total_G
from .enumeration import _enumerate
from .errors import NotComposable, NotImplementedLevel, RangeViolation
from .grammar import format_element
from .trees import _below_root, splice, to_tree


def unit(y):
    """1-on-y: the single-factor element [y|] (level of y must be >= 1)."""
    return embed(y)


def parse_relement(text, level=None):
    """Extended literals: `!e` is the eraser, `0` the level-1 zero, and
    plain literals may contain arity-0 corollas."""
    from .grammar import parse_element

    stripped = text.strip()
    if stripped == "!e":
        return ERASER
    if stripped == "0" and level in (None, 1):
        return ZERO
    return RElement(plain=parse_element(text, level=level, allow_zero=True))


class RElement(NamedTuple):
    """Either a plain element over the arity->=0 base or a degeneracy tag."""
    plain: PlainElement = None
    tag: str = None

    @classmethod
    def of(cls, x):
        return x if isinstance(x, RElement) else cls(plain=x)

    @property
    def is_zero(self):
        return self.tag == "zero"

    @property
    def is_eraser(self):
        return self.tag == "eraser"

    def __repr__(self):
        if self.tag:
            return "<R:%s>" % self.tag
        return "<R:%s>" % format_element(self.plain)


ZERO = RElement(tag="zero")      # the level-1 arity-0 degeneracy
ERASER = RElement(tag="eraser")  # the level-2 lozenge eraser


def r_compose(x, i, u):
    """Composition extended to the degeneracies, level <= 2 only.

    Plain-with-plain falls through to ordinary composition over the
    extended base.  Plugging the zero at level 1 is composition with the
    arity-0 corolla, which subtracts a prong; at level 2, i names a free
    prong of the total and the capped element comes back in canonical
    order.  Plugging the eraser requires factor i to have arity 1 and
    deletes it.
    """
    x = RElement.of(x)
    u = RElement.of(u)
    if x.tag:
        raise NotComposable("cannot compose into a degeneracy")
    xp = x.plain
    if xp.level > 2:
        raise NotImplementedLevel("degeneracy composition is defined for level <= 2")

    if u.plain is not None:
        return RElement(plain=compose(xp, i, u.plain)[0])

    if u.is_zero:
        if xp.level == 1:
            return RElement(plain=compose(xp, i, corolla(0, allow_zero=True))[0])
        total = total_G(xp)
        if i < 1 or i > total.arity:
            raise RangeViolation("prong %d outside 1..%d" % (i, total.arity))
        return RElement(plain=_cap_prong(xp, i))

    # eraser: i is a factor position whose entry must be the 1-corolla
    if xp.level != 2:
        raise NotImplementedLevel("the eraser lives at level 2")
    if i < 1 or i > xp.m:
        raise RangeViolation("factor %d outside 1..%d" % (i, xp.m))
    if xp.factors[i - 1].arity != 1:
        raise NotComposable("eraser needs an arity-1 factor, found arity %d"
                            % xp.factors[i - 1].arity)
    if xp.m == 1:
        # deleting the only lozenge leaves the bare eraser
        return ERASER
    return RElement(plain=_delete_lozenge(xp, i))


def _cap_prong(x, prong):
    """Execute a zero-plug at a free prong of the total: drop its leaf entry."""
    children = to_tree(x)
    splice(children, -prong, [])
    return _below_root(children)[0]


def _delete_lozenge(x, i):
    """Remove an arity-1 factor; its one entry takes its place."""
    children = to_tree(x)
    if i == 1:
        children[0] = children[children[0][0] - 1]
    else:
        splice(children, i, children[i - 1])
    return _below_root(children)[0]


def r_normalize(x):
    """Execute every zero-plug until no arity-0 entry remains.

    An arity-0 factor other than the head was grafted at some prong; the
    plug deletes the factor together with that prong of its parent, which
    may empty the parent in turn.  One reverse-preorder pass drops the
    empty nodes bottom-up; an emptied root leaves the zero.
    """
    x = RElement.of(x)
    if x.tag:
        return x
    e = x.plain
    if e.level == 1:
        return ZERO if e.arity == 0 else RElement(plain=e)
    if e.level != 2:
        raise NotImplementedLevel("normalization of plugs is defined for level <= 2")
    children = to_tree(e)
    for entries in reversed(children):
        entries[:] = [c for c in entries if c < 0 or children[c - 1]]
    if not children[0]:
        return ZERO
    return RElement(plain=_below_root(children)[0])


class BijectionReport(NamedTuple):
    level: int
    plain_count: int
    extended_count: int
    equal: bool
    missing: tuple
    extra: tuple


def check_runital_bijection(level, max_factors=3, max_arity=3):
    """Compare plain elements with normal forms of the arity->=0 extension.

    Enumerates both sides within the bounds; the extension side is every
    zero-free normal form reachable by normalizing a plugged element.
    Normalizing only deletes nodes and prongs, so it stays in the bounds.
    """
    if level not in (1, 2):
        raise NotImplementedLevel("bijection check is defined for level <= 2")
    plain = set(_enumerate(level, max_factors, max_arity, 1))
    plugged = _enumerate(level, max_factors, max_arity, 0)
    extended = set()
    for e in plugged:
        r = r_normalize(RElement(plain=e))
        if not r.tag:
            extended.add(r.plain)
    missing = tuple(sorted(map(format_element, plain - extended)))
    extra = tuple(sorted(map(format_element, extended - plain)))
    return BijectionReport(level, len(plain), len(extended),
                           plain == extended, missing, extra)
