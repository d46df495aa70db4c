"""Bounded exhaustive generation and the counting formulas.

enumerate_elements produces every valid element within the given bounds
exactly once, ordered by the canonical serialization so suite output is
reproducible byte for byte.  The generator composes each sequence as it
extends it, so it knows every element's total: elements are interned
trusted, and validated again only under ``NBASE_CHECK=1``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, islice
from math import comb, factorial, prod

from .elements import POINT, _execute, _trusted, corolla, slots_F, total_G
from .errors import LevelMismatch, RangeViolation, SizeBound
from .grammar import MAX_NESTING, _literal, format_element


def enumerate_elements(level, max_factors, max_arity):
    """All elements of the level within the bounds, sorted by literal."""
    found = _enumerate(level, max_factors, max_arity, 1)
    if level < 2:
        return sorted(found, key=format_element)
    # the key is format_element's literal, from each factor's literal once
    literal = {f: format_element(f)
               for f in _enumerate(level - 1, max_factors, max_arity, 1)}.__getitem__
    return sorted(found, key=lambda x: _literal(map(literal, x.factors), x.indices))


# _graft_sequences raises SizeBound once the sequences it yielded have more
# than this many factors in all: its work grows with them, and a unary
# chain of k factors is one sequence.  The largest enumeration in the
# repository, (2, 6, 3), yields 901,731.
MAX_FACTOR_SUM = 2_000_000


def _graft_sequences(pool, max_factors):
    """Every canonical graft sequence over pool with at most max_factors
    factors, depth first: yields (factors, indices, partial composite)."""
    by_total = {}  # total -> the pool members with that total, in pool order
    for g in pool:
        by_total.setdefault(total_G(g), []).append(g)
    stack = ([([head], [], head) for head in reversed(pool)]
             if max_factors >= 1 else [])
    factor_sum = 0
    while stack:
        factors, indices, partial = stack.pop()
        factor_sum += len(factors)
        if factor_sum > MAX_FACTOR_SUM:
            raise SizeBound("enumeration is bounded by %d factors per level"
                            % MAX_FACTOR_SUM)
        yield factors, indices, partial
        if len(factors) >= max_factors:
            continue
        children = []
        for idx in range(indices[-1] if indices else 1, partial.m + 1):
            for g in by_total.get(slots_F(partial)[idx - 1], ()):
                children.append((factors + [g], indices + [idx],
                                 _execute(partial, idx, g)))
        stack.extend(reversed(children))


# _enumerate raises SizeBound once one level yields more elements than this
MAX_ELEMENTS = 250_000


@lru_cache(maxsize=None, typed=True)
def _enumerate(level, max_factors, max_arity, min_arity, /):
    """Elements in generation order; min_arity 0 admits the arity-0 corolla.

    The levels below are built bottom up, one cached pool each.  Bounds are
    ints (the cache is typed); a level above grammar.MAX_NESTING raises SizeBound.
    """
    bounds = (level, max_factors, max_arity, min_arity)
    if any(b.__class__ is not int for b in bounds):
        raise RangeViolation("enumeration bounds must be integers, got %r" % (bounds,))
    if level < 0:
        raise LevelMismatch("enumeration needs level >= 0, got %d" % level)
    if level > MAX_NESTING:
        raise SizeBound("enumeration is bounded by level %d, got %d"
                        % (MAX_NESTING, level))
    if max_factors < 1:
        return ()
    if level == 0:
        return (POINT,)
    if level == 1:
        return tuple(corolla(a, allow_zero=True)
                     for a in range(min_arity, max_arity + 1))
    for below in range(1, level):
        pool = _enumerate(below, max_factors, max_arity, min_arity)
    sequences = islice(_graft_sequences(pool, max_factors), MAX_ELEMENTS + 1)
    found = tuple(_trusted(level, tuple(factors), tuple(indices), total)
                  for factors, indices, total in sequences)
    if len(found) > MAX_ELEMENTS:
        raise SizeBound("enumeration is bounded by %d elements per level"
                        % MAX_ELEMENTS)
    return found


# count_binary sums a k x k table; above this k it raises SizeBound
MAX_BINARY_FACTORS = 2000


def count_binary(k):
    """Number of level-2 elements with k factors, all of arity 2."""
    if k < 1:
        raise RangeViolation("binary count needs k >= 1, got %d" % k)
    if k > MAX_BINARY_FACTORS:
        raise SizeBound("binary count is bounded by k <= %d, got %d"
                        % (MAX_BINARY_FACTORS, k))
    # ways[l - 1]: sequences of j factors whose last graft index is l (the
    # head counts as 1); the partial has j + 1 prongs, so the next index
    # runs from l to j + 1
    ways = [1]
    for _j in range(1, k):
        ways = list(accumulate(ways))
        ways.append(ways[-1])
    return sum(ways)


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
            raise LevelMismatch("level-1 totals are the point")
        c = sizes.get(POINT, 0)
        return sum(c ** m for m in range(1, bound + 1))
    support = [f for f, s in sizes.items() if s > 0]
    return sum(prod(sizes[f] for f in factors)
               for factors, _, partial in _graft_sequences(support, bound)
               if partial == y)


def free_ea2_component_count(s_size, n):
    """Component count of the free algebra on a binary generator set.

    Returns (binary-shape count, n!, multiset factor, product): the shapes
    are counted by a Catalan number, the permutation factor is n!, and the
    multiset factor counts orbits of n-1 labels from s_size symbols.
    """
    if n < 2:
        raise RangeViolation("component count needs n >= 2, got %d" % n)
    shapes = catalan(n - 1)
    perms = factorial(n)
    multisets = comb(s_size + n - 2, n - 1)
    return shapes, perms, multisets, shapes * perms * multisets
