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
from .grammar import MAX_NESTING, _literal_key, format_element


def enumerate_elements(level, max_factors, max_arity):
    """All elements of the level within the bounds, sorted by literal.

    The key is ``format_element``'s literal, put together from two halves,
    the joined factor literals and the joined indices, each written once per
    distinct tuple for the length of the call (``grammar._literal_key``).
    In a fresh process with check mode off, the (2, 5, 3) pool builds in
    about 40 ms on a shared 2-vCPU host, a fifth of it in the sort.
    """
    found = _enumerate(level, max_factors, max_arity, 1)
    return sorted(found, key=_literal_key() if level >= 2 else format_element)


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
    stack = ([((head,), (), head) for head in reversed(pool)]
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
        slots = slots_F(partial)
        for idx in range(indices[-1] if indices else 1, partial.m + 1):
            for g in by_total.get(slots[idx - 1], ()):
                children.append((factors + (g,), indices + (idx,),
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
    found = tuple(_trusted(level, factors, indices, total)
                  for factors, indices, total in sequences)
    if len(found) > MAX_ELEMENTS:
        raise SizeBound("enumeration is bounded by %d elements per level"
                        % MAX_ELEMENTS)
    return found


# count_binary sums a k x k table, and free_ea2_component_count takes n!;
# above this k or n they raise SizeBound
MAX_BINARY_FACTORS = 2000
# the counting formulas raise SizeBound when a term could have more bits than
# this, judged from the arguments before any arithmetic: big-int work grows
# with the bits, and the division of the geometric sum with their square
_MAX_COUNT_BITS = 1 << 16


def _count_arg(what, name, value, least=0):
    """Refuse a count argument that is not an int of at least ``least``
    (bools too, as the enumeration bounds do)."""
    if value.__class__ is not int or value < least:
        raise RangeViolation("%s needs an int %s >= %d, got %r"
                             % (what, name, least, value))


def _count_bits(what, factors, largest):
    """Refuse a term of up to ``factors`` factors, each at most ``largest``,
    that could have more than _MAX_COUNT_BITS bits."""
    if factors * largest.bit_length() > _MAX_COUNT_BITS:
        raise SizeBound("%s is bounded by terms of %d bits, got up to %d factors of %d bits"
                        % (what, _MAX_COUNT_BITS, factors, largest.bit_length()))


def count_binary(k):
    """Number of level-2 elements with k factors, all of arity 2."""
    _count_arg("binary count", "k", k, 1)
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

    The level is an int >= 1; sizes maps level-(level-1) elements to finite
    cardinalities, and y is at level - 1 too.  The count is the sum over
    all z with total y and at most `bound` factors of the product of the
    sizes of z's entries.  Sizes and the bound are ints >= 0, and a term
    that could have more than 2**16 bits raises SizeBound; above level 1
    the walk is bounded as the enumeration's is (MAX_FACTOR_SUM).
    """
    _count_arg("free-algebra count", "level", level, 1)
    for x in (*sizes, y):
        if getattr(x, "level", None) != level - 1:
            raise LevelMismatch("level-%d free-algebra count takes level-%d elements, got %r"
                                % (level, level - 1, x))
    for size in sizes.values():
        _count_arg("free-algebra count", "size", size)
    _count_arg("free-algebra count", "bound", bound)
    _count_bits("free-algebra count", bound, max(sizes.values(), default=0))
    if level == 1:
        c = sizes.get(POINT, 0)
        # c + c**2 + ... + c**bound
        return bound if c == 1 else (c ** (bound + 1) - c) // (c - 1)
    support = [f for f, s in sizes.items() if s > 0]
    return sum(prod(sizes[f] for f in factors)
               for factors, _, partial in _graft_sequences(support, bound)
               if partial == y)


def free_ea2_component_count(s_size, n):
    """Component count of the free algebra on a binary generator set.

    Returns (binary-shape count, n!, multiset factor, product): the shapes
    are counted by a Catalan number, the permutation factor is n!, and the
    multiset factor counts orbits of n-1 labels from s_size symbols.
    s_size is an int >= 0 and n an int from 2 to MAX_BINARY_FACTORS; a
    multiset factor that could have more than 2**16 bits raises SizeBound.
    """
    _count_arg("component count", "size", s_size)
    _count_arg("component count", "n", n, 2)
    if n > MAX_BINARY_FACTORS:
        raise SizeBound("component count is bounded by n <= %d, got %d"
                        % (MAX_BINARY_FACTORS, n))
    _count_bits("component count", n - 1, s_size + n - 2)
    shapes = catalan(n - 1)
    perms = factorial(n)
    multisets = comb(s_size + n - 2, n - 1)
    return shapes, perms, multisets, shapes * perms * multisets
