"""Bounded exhaustive generation and the counting formulas.

enumerate_elements produces every valid element within the given bounds
exactly once, ordered by the canonical serialization so suite output is
reproducible byte for byte.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

from .elements import POINT, PlainElement, _execute, corolla, slots_F, total_G
from .errors import RangeViolation
from .grammar import format_element


def enumerate_elements(level, max_factors, max_arity):
    """All elements of the level within the bounds, sorted by literal."""
    return sorted(_enumerate(level, max_factors, max_arity),
                  key=format_element)


@lru_cache(maxsize=None)
def _enumerate(level, max_factors, max_arity, min_arity=1):
    """Elements in generation order; min_arity 0 admits the arity-0 corolla."""
    if level == 0:
        return (POINT,)
    if level == 1:
        return tuple(corolla(a, allow_zero=True)
                     for a in range(min_arity, max_arity + 1))
    pool = _enumerate(level - 1, max_factors, max_arity, min_arity)
    out = []

    def extend(factors, indices, partial, last):
        out.append(PlainElement(level, factors=list(factors), indices=list(indices)))
        if len(factors) >= max_factors:
            return
        for idx in range(last, partial.m + 1):
            content = slots_F(partial)[idx - 1]
            for g in pool:
                if total_G(g) == content:
                    extend(factors + [g], indices + [idx],
                           _execute(partial, idx, g), idx)

    for head in pool:
        extend([head], [], head, 1)
    return tuple(out)


def count_binary(k):
    """Number of level-2 elements with k factors, all of arity 2."""
    if k < 1:
        raise RangeViolation("binary count needs k >= 1, got %d" % k)
    total = 0

    def extend(j, prongs, last):
        # j factors placed; partial composite has `prongs` prongs
        nonlocal total
        if j == k:
            total += 1
            return
        for idx in range(last, prongs + 1):
            extend(j + 1, prongs + 1, idx)

    extend(1, 2, 1)
    return total


def catalan(k):
    return comb(2 * k, k) // (k + 1)


def free_plain_algebra_count(level, sizes, y, bound):
    """Size of the free-algebra component over y, truncated at `bound` factors.

    sizes maps level-(n-1) elements to finite cardinalities; the count is the
    sum over all z with total y and at most `bound` factors of the product of
    the sizes of z's entries.
    """
    if level == 1:
        if y != POINT:
            raise ValueError("level-1 totals are the point")
        c = sizes.get(POINT, 0)
        return sum(c ** m for m in range(1, bound + 1))
    support = [f for f, s in sizes.items() if s > 0]
    total = 0

    def product(factors):
        p = 1
        for f in factors:
            p *= sizes[f]
        return p

    def extend(factors, partial, last):
        nonlocal total
        if partial == y:
            total += product(factors)
        if len(factors) >= bound:
            return
        for idx in range(last, partial.m + 1):
            content = slots_F(partial)[idx - 1]
            for g in support:
                if total_G(g) == content:
                    extend(factors + [g], _execute(partial, idx, g), idx)

    for head in support:
        extend([head], head, 1)
    return total


def free_ea2_component_count(s_size, n):
    """Component count of the free algebra on a binary generator set.

    Returns (binary-shape count, n!, multiset factor, product): the shapes
    are counted by a Catalan number, the permutation factor is n!, and the
    multiset factor counts orbits of n-1 labels from s_size symbols.
    """
    if n < 2:
        raise ValueError("n >= 2")
    shapes = catalan(n - 1)
    perms = factorial(n)
    multisets = comb(s_size + n - 2, n - 1)
    return shapes, perms, multisets, shapes * perms * multisets
