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

from dataclasses import dataclass

from .elements import PlainElement, compose, corolla, embed, provenance, total_G
from .enumeration import _enumerate, enumerate_elements
from .errors import NotComposable, NotImplementedLevel, RangeViolation
from .grammar import format_element


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


@dataclass(frozen=True)
class RElement:
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

    @property
    def m(self):
        return 0 if self.tag else self.plain.m

    def __repr__(self):
        if self.tag:
            return "<R:%s>" % self.tag
        return "<R:%s>" % format_element(self.plain)


ZERO = RElement(tag="zero")      # the level-1 arity-0 degeneracy
ERASER = RElement(tag="eraser")  # the level-2 lozenge eraser


def r_compose(x, i, u):
    """Composition extended to the degeneracies, level <= 2 only.

    Plain-with-plain falls through to ordinary composition over the
    extended base.  Plugging the zero at level 1 subtracts a prong; at
    level 2, i names a free prong of the total and the capped element comes
    back already normalized.  Plugging the eraser requires factor i to have
    arity 1 and deletes it.
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
            if i < 1 or i > xp.arity:
                raise RangeViolation("prong %d outside 1..%d" % (i, xp.arity))
            return RElement(plain=corolla(xp.arity - 1, allow_zero=True))
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
    """Execute a zero-plug at a free prong of the total.

    The owning corolla loses the prong; graft indices that counted the
    capped prong to their left at graft time shift down by one.  The capped
    prong's position is tracked forward from the owner's entry.
    """
    t, q = provenance(x)[1][prong - 1]
    factors = list(x.factors)
    factors[t - 1] = corolla(factors[t - 1].arity - 1, allow_zero=True)
    indices = list(x.indices)
    p = q if t == 1 else indices[t - 2] - 1 + q
    for s in range(t + 1, x.m + 1):
        sigma = indices[s - 2]
        if sigma < p:
            p += x.factors[s - 1].arity - 1
        else:
            indices[s - 2] = sigma - 1
    if len(factors) == 1:
        return PlainElement(2, factors=factors, indices=())
    return PlainElement(2, factors=factors, indices=indices)


def _delete_lozenge(x, i):
    """Remove an arity-1 factor; a 1-ary graft never shifts slot numbers."""
    factors = list(x.factors)
    indices = list(x.indices)
    del factors[i - 1]
    if i == 1:
        del indices[0]
    else:
        del indices[i - 2]
    return PlainElement(2, factors=factors, indices=indices)


def r_normalize(x):
    """Execute every zero-plug until no arity-0 entry remains.

    An arity-0 factor other than the head was grafted at some prong; the
    plug executes by deleting the factor and decrementing the corolla that
    owned the prong (in the partial composite before the plug; no other
    index moves, the plug's own graft already consumed the slot).
    """
    x = RElement.of(x)
    if x.tag:
        return x
    e = x.plain
    if e.level == 1:
        return ZERO if e.arity == 0 else RElement(plain=e)
    if e.level != 2:
        raise NotImplementedLevel("normalization of plugs is defined for level <= 2")
    while True:
        pos = next((t for t, f in enumerate(e.factors, start=1)
                    if f.arity == 0), None)
        if pos is None:
            return RElement(plain=e)
        if pos == 1:
            if e.m == 1:
                return ZERO
            raise NotComposable("zero head with attachments is invalid")
        factors = list(e.factors)
        indices = list(e.indices)
        t, _q = provenance(e)[0][pos - 2]
        del factors[pos - 1]
        del indices[pos - 2]
        factors[t - 1] = corolla(factors[t - 1].arity - 1, allow_zero=True)
        if len(factors) == 1:
            e = PlainElement(2, factors=factors, indices=())
        else:
            e = PlainElement(2, factors=factors, indices=indices)


@dataclass(frozen=True)
class BijectionReport:
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
    """
    if level == 1:
        plain = {corolla(a) for a in range(1, max_arity + 1)}
        extended = set()
        for a in range(0, max_arity + 1):
            r = r_normalize(RElement(plain=corolla(a, allow_zero=True)))
            if not r.tag:
                extended.add(r.plain)
        missing = tuple(sorted(map(format_element, plain - extended)))
        extra = tuple(sorted(map(format_element, extended - plain)))
        return BijectionReport(1, len(plain), len(extended),
                               plain == extended, missing, extra)
    if level != 2:
        raise NotImplementedLevel("bijection check is defined for level <= 2")

    plain = set(enumerate_elements(2, max_factors, max_arity))
    extended = set()
    for e in _enumerate(2, max_factors, max_arity, 0):
        r = r_normalize(RElement(plain=e))
        if r.tag:
            continue
        p = r.plain
        if p.m <= max_factors and all(f.arity <= max_arity for f in p.factors):
            extended.add(p)
    missing = tuple(sorted(map(format_element, plain - extended)))
    extra = tuple(sorted(map(format_element, extended - plain)))
    return BijectionReport(2, len(plain), len(extended),
                           plain == extended, missing, extra)
