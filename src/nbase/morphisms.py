"""Permutation morphisms of level-2 elements.

Two independent kinds of isomorphism act on a planar tree:

* a one-morphism reorders, node by node, the child subtrees hanging off a
  node's prongs (one permutation per factor, degree = that factor's arity);
* a two-morphism relates two elements whose factor sequences match up to a
  permutation: target factor t equals source factor sigma(t).

apply_two constructs the canonical two-morphism candidate that keeps the
graft-index sequence (and reports NoMorphism when that candidate is not a
valid element); squares and induced morphisms carry explicit targets, since
transporting a one-morphism generally changes the index data.

One- and two-morphisms out of a common source complete to a unique
commuting square, and composition is equivariant under two-morphisms.
"""

from __future__ import annotations

from itertools import permutations, product
from math import factorial, prod
from typing import NamedTuple

from .elements import PlainElement, compose
from .errors import (
    DegreeMismatch,
    LevelMismatch,
    MatchViolation,
    NotComposable,
    OrderViolation,
    RangeViolation,
    SizeBound,
    UnknownStrategy,
)
from .trees import _lists, walk

# two_morphisms_between raises SizeBound above this many results
MAX_TWO_MORPHISMS = 100_000
# enumerate_morphisms raises SizeBound for an element of more factors
MAX_MORPHISM_FACTORS = 6


def _inverse(perm):
    """The inverse of a permutation of 1..n, as a tuple."""
    inv = [0] * len(perm)
    for a, b in enumerate(perm, start=1):
        inv[b - 1] = a
    return tuple(inv)


def _check_perm(perm, degree, what, *args):
    if sorted(perm) != list(range(1, degree + 1)):
        raise DegreeMismatch("%s must be a permutation of 1..%d, got %r"
                             % (what % args, degree, perm))


class OneMor2(NamedTuple):
    """Prong permutations per node, with the target they produce.

    node_perms[t-1] sends the subtree at prong p of source factor t to
    prong node_perms[t-1][p-1] of the corresponding target node.
    leaf_perm and node_relabel give the induced position maps (1-based).
    """
    source: PlainElement
    node_perms: tuple
    target: PlainElement
    leaf_perm: tuple
    node_relabel: tuple

    def then(self, other):
        """Composite morphism: self followed by other (other.source == self.target)."""
        if other.source != self.target:
            raise NotComposable("target/source mismatch in one-morphism composition")
        k = self.source.m
        perms = []
        for t in range(1, k + 1):
            p1 = self.node_perms[t - 1]
            p2 = other.node_perms[self.node_relabel[t - 1] - 1]
            perms.append(tuple(p2[p1[p - 1] - 1] for p in range(1, len(p1) + 1)))
        return apply_one(self.source, perms)

    def inverse(self):
        # target node u is source node t = node_relabel^-1(u)
        return apply_one(self.target, [_inverse(self.node_perms[t - 1])
                                       for t in _inverse(self.node_relabel)])

    def is_identity(self):
        return self.source == self.target and all(
            p == tuple(range(1, len(p) + 1)) for p in self.node_perms)


class TwoMor2(NamedTuple("TwoMor2", [("source", PlainElement), ("target", PlainElement),
                                      ("sigma", tuple)])):
    """Factor permutation between two valid elements: target[t] = source[sigma[t]]."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(cls, source, target, sigma):
        _check_perm(sigma, source.m, "sigma")
        if target.m != source.m:
            raise DegreeMismatch("source and target must have equal factor counts")
        for t in range(1, source.m + 1):
            if target.factors[t - 1] != source.factors[sigma[t - 1] - 1]:
                raise MatchViolation(
                    "factor %d of the target is not factor %d of the source"
                    % (t, sigma[t - 1]))
        return super().__new__(cls, source, target, sigma)

    def transport(self, pos):
        """Target position of the factor at source position pos."""
        return self.sigma.index(pos) + 1

    def then(self, other):
        if other.source != self.target:
            raise NotComposable("target/source mismatch in two-morphism composition")
        k = len(self.sigma)
        sigma = tuple(self.sigma[other.sigma[t - 1] - 1] for t in range(1, k + 1))
        return TwoMor2(self.source, other.target, sigma)

    def inverse(self):
        return TwoMor2(self.target, self.source, _inverse(self.sigma))

    def is_identity(self):
        return (self.source == self.target
                and self.sigma == tuple(range(1, len(self.sigma) + 1)))


class Square12(NamedTuple):
    """Commuting square: a one-edge and a two-edge out of a common source.

    top: source -> corner_two (two-morphism), left: source -> corner_one
    (one-morphism); the opposite corner carries the transported data.
    """
    source: PlainElement
    top: TwoMor2
    left: OneMor2
    right: OneMor2    # corner_two -> opposite, transported prong perms
    bottom: TwoMor2   # corner_one -> opposite, transported factor perm
    opposite: PlainElement

    def commutes(self):
        return (self.top.source == self.source
                and self.left.source == self.source
                and self.right.source == self.top.target
                and self.bottom.source == self.left.target
                and self.right.target == self.opposite
                and self.bottom.target == self.opposite
                and all(self.right.node_perms[t - 1]
                        == self.left.node_perms[self.top.sigma[t - 1] - 1]
                        for t in range(1, self.source.m + 1)))


def apply_one(source, node_perms):
    """Reorder every node's child subtrees by its permutation.

    The source's child lists, each entry moved to its permuted prong, are
    walked once (``trees.walk``): target, node_relabel and leaf_perm are
    read off in one iterative pass, linear in the tree whatever its height.
    """
    if source.level != 2:
        raise LevelMismatch("one-morphisms act on level-2 elements")
    if len(node_perms) != source.m:
        raise DegreeMismatch("need one permutation per factor")
    node_perms = tuple(tuple(p) for p in node_perms)
    children = []
    for t, (p, entries) in enumerate(zip(node_perms, _lists(source)), start=1):
        _check_perm(p, len(entries), "permutation %d", t)
        moved = list(entries)
        for c, q in zip(entries, p):  # each entry to its permuted prong
            moved[q - 1] = c
        children.append(moved)
    target, reached = walk(source.factors, children)
    leaves = len(reached) - source.m  # every node and leaf is reached
    return OneMor2(source, node_perms, target,
                   tuple([reached[-n] for n in range(1, leaves + 1)]),
                   tuple([reached[t] for t in range(1, source.m + 1)]))


def apply_two(source, sigma):
    """Canonical two-morphism keeping indices; None when that is not valid."""
    if source.level != 2:
        raise LevelMismatch("two-morphisms act on level-2 elements")
    sigma = tuple(sigma)
    _check_perm(sigma, source.m, "sigma")
    factors = [source.factors[sigma[t] - 1] for t in range(source.m)]
    try:
        target = PlainElement(2, factors=factors, indices=source.indices)
    except (RangeViolation, MatchViolation, OrderViolation):
        return None
    return TwoMor2(source, target, sigma)


def two_morphisms_between(x, y):
    """All factor-matching permutations from x to y, in lexicographic order.

    The source positions of each equal-factor class are permuted onto the
    class's target positions, so only matching permutations are built.
    Their number is the product of the factorials of the class sizes;
    above MAX_TWO_MORPHISMS it raises SizeBound before any is built.
    """
    sources, targets = {}, {}
    for where, z in ((sources, x), (targets, y)):
        for s, f in enumerate(z.factors, start=1):
            where.setdefault(f, []).append(s)
    if {f: len(s) for f, s in sources.items()} != {f: len(t) for f, t in targets.items()}:
        return []
    count = prod(factorial(len(group)) for group in sources.values())
    if count > MAX_TWO_MORPHISMS:
        raise SizeBound("%d two-morphisms between the elements, bound is %d"
                        % (count, MAX_TWO_MORPHISMS))
    sigmas = []
    for choice in product(*map(permutations, sources.values())):
        sigma = [0] * x.m
        for f, perm in zip(sources, choice):
            for t, s in zip(targets[f], perm):
                sigma[t - 1] = s
        sigmas.append(tuple(sigma))
    return [TwoMor2(x, y, sigma) for sigma in sorted(sigmas)]


def complete_square(f, g):
    """The unique square with one-edge f and two-edge g at the same source.

    The right edge applies, at each node of g's target, the prong
    permutation f prescribed for the matching source node; the bottom edge
    is g's factor permutation read through the two node relabellings.
    """
    if f.source != g.source:
        raise NotComposable("the two edges must share their source")
    transported = tuple(f.node_perms[s - 1] for s in g.sigma)
    right = apply_one(g.target, transported)
    opposite = right.target
    sigma_bottom = tuple(f.node_relabel[g.sigma[t - 1] - 1]
                         for t in _inverse(right.node_relabel))
    bottom = TwoMor2(f.target, opposite, sigma_bottom)
    return Square12(f.source, g, f, right, bottom, opposite)


def induced_two_on_composition(x, i, y, f, g):
    """Transport a composition along factor automorphisms of its arguments.

    f and g must be two-morphisms from x to x and y to y.  The result is a
    two-morphism from compose(x, i, y) to compose(x, i', y), i' the slot f
    carries i to, acting as f on the x-positions and g on the y-positions;
    the transported composite is literally the composite at the transported
    slot, which is the strict commutation of composition with the action.
    """
    if f.source != x or f.target != x:
        raise NotComposable("f must be an automorphism of x")
    if g.source != y or g.target != y:
        raise NotComposable("g must be an automorphism of y")
    xy, sh = compose(x, i, y)
    i2 = f.transport(i)
    xy2, sh2 = compose(x, i2, y)
    k = xy.m
    sigma = [0] * k
    for j in range(1, x.m + 1):
        if j == i:
            continue
        sigma[sh2.phi[f.transport(j)] - 1] = sh.phi[j]
    for t in range(1, y.m + 1):
        sigma[sh2.psi[g.transport(t)] - 1] = sh.psi[t]
    return TwoMor2(xy, xy2, tuple(sigma))


def identity_one(x):
    return apply_one(x, [tuple(range(1, f.arity + 1)) for f in x.factors])


def identity_two(x):
    return TwoMor2(x, x, tuple(range(1, x.m + 1)))


def enumerate_morphisms(x, kind):
    """All one-morphisms out of x, or all index-keeping two-morphisms."""
    if x.m > MAX_MORPHISM_FACTORS:
        raise SizeBound("element has %d factors, bound is %d" % (x.m, MAX_MORPHISM_FACTORS))
    if kind == "one":
        pools = [permutations(range(1, f.arity + 1)) for f in x.factors]
        return [apply_one(x, perms) for perms in product(*pools)]
    if kind == "two":
        out = []
        for sigma in permutations(range(1, x.m + 1)):
            mor = apply_two(x, sigma)
            if mor is not None:
                out.append(mor)
        return out
    raise UnknownStrategy("kind must be 'one' or 'two', got %r" % (kind,))
