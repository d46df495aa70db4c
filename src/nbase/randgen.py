"""Seeded random generation of elements and composable configurations.

Everything is driven by an explicit random.Random so suites are
reproducible.  The central trick is generating an element with a
prescribed total: factor the target through an attachment split or a unit
split and graft recursively built pieces.  An attachment split rebuilds
its base, a unit in the chosen attachment's place, with one ``_hang``.
"""

from __future__ import annotations

from .elements import (
    GammaSequence,
    _execute,
    _hang,
    corolla,
    decompose_head,
    embed,
    graft_at_slot,
    slots_F,
    total_G,
)
from .errors import LevelMismatch


def factorize(w, rng):
    """A random (a, i, b) with compose(a, i, b) == w.

    Falls back to a unit split (a or b the single-factor identity) when w
    has no attachment to peel off or at random.
    """
    if w.level == 1:
        a = rng.randint(1, w.arity)
        b = w.arity + 1 - a
        return corolla(a), rng.randint(1, a), corolla(b)
    if w.m >= 2 and rng.random() < 0.7:
        hf = decompose_head(w)
        att = rng.choice(hf.attachments)
        # the unit on att's total takes the position of att's first factor,
        # so composing att back in there gives w
        a = _hang(hf.head, [(o.slot, embed(total_G(o.element)) if o is att else o.element)
                            for o in hf.attachments])[0]
        return a, att.positions[0], att.element
    if rng.random() < 0.5:
        return embed(total_G(w)), 1, w
    i = rng.randint(1, w.m)
    return w, i, embed(slots_F(w)[i - 1])


def random_with_total(level, w, rng, depth=2):
    """A level-`level` element whose total is exactly w (level of w + 1)."""
    if level < 2:
        raise LevelMismatch("random_with_total needs level >= 2")
    if depth <= 0 or rng.random() < 0.4:
        return embed(w)
    a, i, b = factorize(w, rng)
    ya = random_with_total(level, a, rng, depth - 1)
    yb = random_with_total(level, b, rng, depth - 1)
    # the total of ya is literally a, so slot i of it is slot i of a
    return graft_at_slot(ya, i, yb).element


def random_element(level, rng, grafts=2, max_arity=4, depth=2):
    """A random element, grown by grafting pieces with matching totals."""
    if level == 1:
        return corolla(rng.randint(1, max_arity))
    base = embed(random_element(level - 1, rng, grafts=max(grafts - 1, 1),
                                max_arity=max_arity, depth=depth))
    e = base
    for _ in range(grafts):
        w = total_G(e)
        s = rng.randint(1, w.m)
        content = slots_F(w)[s - 1]
        if level == 2:
            piece_total = corolla(rng.randint(1, max_arity))
        else:
            piece_total = random_with_total(level - 1, content, rng, depth)
        piece = random_with_total(level, piece_total, rng, depth)
        e = graft_at_slot(e, s, piece).element
    return e


def _composable_at(level, rng, count, kw):
    """(x, s_1, y_1, ..., s_count, y_count): a random x of at least count
    factors, count increasing slots of it, and an element composable at each."""
    while True:
        x = random_element(level, rng, **kw)
        if x.m >= count:
            break
    out = [x]
    for s in sorted(rng.sample(range(1, x.m + 1), count)):
        out += [s, random_with_total(level, slots_F(x)[s - 1], rng)]
    return tuple(out)


def random_composable_triple(level, rng, **kw):
    """(x, i, y, j, z) with i < j, both arguments composable into x."""
    return _composable_at(level, rng, 2, kw)


def random_phi_quad(level, rng, **kw):
    """(x, i, y, j, z, k, t): i < j < k with y, z, t composable at i, j, k."""
    return _composable_at(level, rng, 3, kw)


def random_gamma(level, rng, steps=3, max_arity=3):
    """A raw application sequence (graft order unrestricted, so unsorted)."""
    head = random_element(level - 1, rng, max_arity=max_arity, grafts=1)
    factors = [head]
    indices = []
    partial = head
    for _ in range(steps):
        s = rng.randint(1, partial.m)
        content = slots_F(partial)[s - 1]
        if level == 2:
            f = corolla(rng.randint(1, max_arity))
        else:
            f = random_with_total(level - 1, content, rng, depth=1)
        factors.append(f)
        indices.append(s)
        partial = _execute(partial, s, f)
    return GammaSequence(level, tuple(factors), tuple(indices))
