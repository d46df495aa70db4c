"""Core algebra of level-indexed composable shapes.

An element of level 0 is the point.  An element of level 1 is a positive
arity (a corolla with that many prongs).  An element of level n >= 2 is a
nonempty sequence of level-(n-1) factors together with graft indices: factor
t+1 is grafted into slot ``indices[t-1]`` of the executed composite of the
factors before it.  Canonical form requires the index sequence to be
nondecreasing; grafting at equal indices means grafting into the piece that
was just inserted.

At level 2 these are exactly planar rooted trees (factor t+1's corolla hangs
off prong ``indices[t-1]`` of the partial tree, prongs numbered left to
right) and the canonical factor order is the preorder traversal.

Composition ``compose(x, i, y)`` substitutes y for the i-th factor of x and
returns, besides the canonical result, the pair of strictly increasing
position maps (phi for x's surviving factors, psi for y's) recording where
every factor lands.  All values are immutable; every function is pure.
Every order of the grafts builds one tree: each factor fills one slot of
an earlier factor.  ``_tree`` reads it off a sequence as child lists, and
``walk`` writes it back as the canonical element, at every level.  Every
reader of an element's tree goes through ``_lists``, which keeps the lists
on the element, as tuples, from its second read on.
``_hang`` hangs the trees of several elements at slots of one head and
walks once: ``HeadForm.recompose`` and each level of ordinal encoding.

Elements are hash-consed: each distinct value is built once per process and
two equal elements are the same object (``==`` and the hash are identity).
A value enters the intern table by one of three doors.  ``corolla`` (level
1) and ``make`` (level >= 2, the level checked before the lookup) validate
a new value; ``_trusted`` stores internal outputs (of compose, graft,
normalize, embed and walk) unvalidated, re-validated under ``NBASE_CHECK=1``.
A value, once built, lives for the process, as compose results do.
"""

from __future__ import annotations

import os
from operator import index, le
from typing import NamedTuple

from .errors import (
    InvalidSequence,
    InvalidShuffle,
    LevelMismatch,
    MatchViolation,
    NotComposable,
    OrderViolation,
    RangeViolation,
    SizeBound,
    TrustViolation,
    UnknownStrategy,
)

# corolla raises SizeBound for a level-1 arity above this
MAX_ARITY = 100_000
_CHECK = os.environ.get("NBASE_CHECK") == "1"


class PlainElement:
    """Immutable level-tagged shape, interned.

    ``__new__`` only dispatches: level 0 is ``POINT``, level 1 goes to
    ``corolla`` and every other level to ``make``.  Those two and
    ``_trusted`` are the doors of the intern table.  Equal values are one
    object for the life of the process: equality and hash are identity.
    ``m`` counts entries: factors, the arity at level 1, 1 for the point.
    """

    __slots__ = ("level", "arity", "factors", "indices", "m", "_total", "_children")

    def __new__(cls, level, arity=None, factors=None, indices=None,
                allow_zero=False):
        if level == 0:
            return POINT
        if level == 1:
            return corolla(arity, allow_zero)
        return make(level, factors, indices)

    def __init__(self, level, arity=None, factors=None, indices=None,
                 allow_zero=False):
        """Nothing to set (a door built it); kept for tracers to wrap."""

    def __repr__(self):
        from .grammar import format_element
        return "<%d:%s>" % (self.level, format_element(self))


def _ints(indices):
    """Graft indices as a tuple of ints: intern keys compare indices with
    ==, under which 1.0 == 1."""
    try:
        return tuple(map(index, indices))
    except TypeError:
        raise RangeViolation("graft indices must be integers, got %r" % (indices,)) from None


def _validate(level, factors, indices):
    """Check the invariants of a level >= 2 element; returns its total.

    ``make`` checked the level before its lookup; ``_trusted`` calls this in check mode."""
    if not factors:
        raise RangeViolation("level-%d element needs at least one factor" % level)
    if len(indices) != len(factors) - 1:
        raise RangeViolation(
            "expected %d graft indices for %d factors, got %d"
            % (len(factors) - 1, len(factors), len(indices)))
    for f in factors:
        if not isinstance(f, PlainElement) or f.level != level - 1:
            raise LevelMismatch(
                "factor %r is not a level-%d element" % (f, level - 1))
    for a, b in zip(indices, indices[1:]):
        if a > b:
            raise OrderViolation(
                "graft indices must be nondecreasing: %r" % (indices,))
    return _check_sequence(factors, indices)


def _new(level, arity, factors, indices, total):
    self = object.__new__(PlainElement)
    self.level = level
    self.arity = arity
    self.factors = factors
    self.indices = indices
    self.m = len(factors) if level >= 2 else arity if level else 1
    self._total = total
    self._children = None
    return self


def _trusted(level, factors, indices, total):
    """Value of canonical tuples the package built, of known total: only check mode validates."""
    key = (level, factors, indices)
    self = _interned.get(key)
    if self is None:
        if _CHECK:
            try:
                found = _validate(level, factors, indices)
            except Exception as exc:  # reported as what it validates to
                found = exc
            if found is not total:
                raise TrustViolation("trusted %r, total %r, validates to %r" % (key, total, found))
        self = _interned.setdefault(key, _new(level, None, factors, indices, total))
    return self


# Keys are (0,), (1, arity) and (level, factors, indices), built from ints
# and identity-hashed elements, so dict.setdefault runs no Python code and
# is one atomic step: threads that build one value at once get one object.
_interned: dict = {}
_rows: dict = {}  # the one tuple of each row value in kept child lists

POINT = _interned.setdefault((0,), _new(0, None, None, None, None))


def corolla(arity, allow_zero=False):
    """The level-1 element with the given number of prongs."""
    # a stored corolla of positive int arity is valid; arity 0, bools,
    # floats and arities not seen yet are checked before the insert
    if arity.__class__ is int and arity > 0:
        found = _interned.get((1, arity))
        if found is not None:
            return found
    if arity.__class__ is not int or arity < (0 if allow_zero else 1):
        raise RangeViolation("level-1 arity must be a positive integer, got %r" % (arity,))
    if arity > MAX_ARITY:
        raise SizeBound("level-1 arity is bounded by %d, got %d" % (MAX_ARITY, arity))
    return _interned.setdefault((1, arity), _new(1, arity, None, None, POINT))


def make(level, factors, indices):
    """Canonical level-n element (n >= 2); validates a new one."""
    # before the lookup, where 2.0 == 2 would match a level-2 key
    if level.__class__ is not int or level < 2:
        raise LevelMismatch("element level must be an int >= 2, got %r" % (level,))
    try:
        factors = tuple(factors)
    except TypeError:
        raise RangeViolation("factors must be iterable, got %r" % (factors,)) from None
    indices = _ints(indices)
    key = (level, factors, indices)
    try:
        self = _interned.get(key)
    except TypeError:  # an unhashable factor, which validation reports
        self = None
    if self is None:
        self = _interned.setdefault(key, _new(
            level, None, factors, indices, _validate(level, factors, indices)))
    return self


class ShuffleMap(NamedTuple):
    """Position maps of a composition at slot i.

    phi maps the surviving x-factor positions {1..m_x} minus {i}, psi maps
    y-factor positions {1..m_y}; both are strictly increasing and their
    images partition {1..m_x+m_y-1}.  Compositions of one shape share one
    map, so phi and psi (and GraftResult's slot maps) are read-only.
    """
    i: int
    m_x: int
    m_y: int
    phi: dict
    psi: dict

    def check(self):
        """True if phi and psi form a shuffle; raises InvalidShuffle otherwise."""
        tot = self.m_x + self.m_y - 1
        phi_keys = sorted(self.phi)
        psi_keys = sorted(self.psi)
        if phi_keys != [j for j in range(1, self.m_x + 1) if j != self.i]:
            raise InvalidShuffle("phi is defined on %r, not on 1..%d without %d"
                                 % (phi_keys, self.m_x, self.i))
        if psi_keys != list(range(1, self.m_y + 1)):
            raise InvalidShuffle("psi is defined on %r, not on 1..%d"
                                 % (psi_keys, self.m_y))
        phi_vals = [self.phi[j] for j in phi_keys]
        psi_vals = [self.psi[k] for k in psi_keys]
        for name, vals in (("phi", phi_vals), ("psi", psi_vals)):
            if any(a >= b for a, b in zip(vals, vals[1:])):
                raise InvalidShuffle("%s is not strictly increasing: %r" % (name, vals))
        if any(self.phi[j] != j for j in phi_keys if j < self.i):
            raise InvalidShuffle("phi moves a position before slot %d" % self.i)
        if sorted(phi_vals + psi_vals) != list(range(1, tot + 1)):
            raise InvalidShuffle("the images of phi and psi do not partition 1..%d" % tot)
        return True


class GammaSequence(NamedTuple):
    """A raw application sequence: like an element but with unsorted indices."""
    level: int
    factors: tuple
    indices: tuple

    def validate(self):
        """The sequence, its indices made ints, if each graft is valid."""
        if self.level < 2:
            raise LevelMismatch("raw sequences live at level >= 2")
        if not self.factors:
            raise InvalidSequence("a raw sequence needs at least one factor")
        if len(self.indices) != len(self.factors) - 1:
            raise InvalidSequence(
                "expected %d graft indices for %d factors, got %d"
                % (len(self.factors) - 1, len(self.factors), len(self.indices)))
        indices = _ints(self.indices)
        if not all(isinstance(f, PlainElement) for f in self.factors):
            raise LevelMismatch("raw sequence factors must be elements: %r" % (self.factors,))
        try:
            _check_sequence(self.factors, indices)
        except (RangeViolation, MatchViolation) as exc:
            raise InvalidSequence(str(exc)) from exc
        if any(f.level != self.level - 1 for f in self.factors):
            raise LevelMismatch("a level-%d sequence has level-%d factors"
                                % (self.level, self.level - 1))
        return self._replace(indices=indices)


def _check_sequence(factors, indices):
    """Range and matching constraints of a graft sequence, in application order."""
    partial = factors[0]
    if partial.level == 1:
        # level-1 partials are corollas: every slot holds the point, and the
        # composite has the summed arity (as in _execute)
        prongs = partial.arity
        for t, (f, idx) in enumerate(zip(factors[1:], indices), start=2):
            if idx < 1 or idx > prongs:
                raise RangeViolation(
                    "index %d of factor %d outside 1..%d" % (idx, t, prongs))
            if f._total is not POINT:
                raise MatchViolation(
                    "factor %d has total %r but slot %d holds %r"
                    % (t, total_G(f), idx, POINT))
            prongs += f.arity - 1
        return corolla(prongs, allow_zero=True)
    for t, (f, idx) in enumerate(zip(factors[1:], indices), start=2):
        if idx < 1 or idx > partial.m:
            raise RangeViolation(
                "index %d of factor %d outside 1..%d" % (idx, t, partial.m))
        slot_content = slots_F(partial)[idx - 1]
        if total_G(f) != slot_content:
            raise MatchViolation(
                "factor %d has total %r but slot %d holds %r"
                % (t, total_G(f), idx, slot_content))
        partial = _execute(partial, idx, f)
    return partial


# -- the F, G, m trio ----------------------------------------------------

def arity_m(x):
    """Entry count of x (m-value)."""
    return x.m


def slots_F(x):
    """The slot sequence: factors at level >= 2, m copies of the point at level 1."""
    if x.level == 0:
        raise LevelMismatch("the point has no slot sequence")
    if x.level == 1:
        return (POINT,) * x.arity
    return x.factors


def total_G(x):
    """The executed composite one level down (the total shape of x)."""
    if x._total is None:
        raise LevelMismatch("the point has no total")
    return x._total


def _execute(x, i, y):
    """Composite without shuffle bookkeeping: validation, ``_splice``,
    ``_graft_indices``, ``enumeration`` and ``randgen`` build partials with it."""
    if x.level == 1:
        return corolla(x.arity + y.arity - 1, allow_zero=True)
    return compose(x, i, y)[0]


# -- composition ---------------------------------------------------------

_compose_cache: dict = {}


def compose(x, i, y):
    """Substitute y into slot i of x; returns (result, ShuffleMap)."""
    key = (x, i, y)
    hit = _compose_cache.get(key)
    if hit is not None and i.__class__ is int:  # 2.0 == 2 as a key, but _slot refuses it
        return hit
    res = _compose(x, i, y)
    _compose_cache[key] = res
    return res


def _slot(i):
    """A slot number as an int: results are trusted, so no bool or float
    may reach their indices or maps."""
    try:
        return index(i)
    except TypeError:
        raise RangeViolation("a slot must be an integer, got %r" % (i,)) from None


def _compose(x, i, y):
    if x.level != y.level or x.level < 1:
        raise LevelMismatch("compose needs two elements of equal level >= 1")
    i = _slot(i)
    if i < 1 or i > x.m:
        raise RangeViolation("slot %d outside 1..%d" % (i, x.m))
    n = x.level
    if n == 1:
        return (corolla(x.arity + y.arity - 1, allow_zero=True),
                _shuffle(i, y.arity, tuple(range(1, x.arity + y.arity))))

    if total_G(y) != slots_F(x)[i - 1]:
        raise NotComposable(
            "G(y)=%r does not match slot %d of x (%r)"
            % (total_G(y), i, slots_F(x)[i - 1]))

    canonical, perm = _sort_sequence(n, *_splice(x, i, y), total=x._total)
    return canonical, _shuffle(i, y.m, perm)


# one ShuffleMap per shape (i, m_y, perm), shared by the memo entries of it
_shuffles: dict = {}


def _shuffle(i, m_y, perm):
    """The ShuffleMap of slot i, m_y y-factors and perm, the canonical position
    of each factor of the raw order x_1..x_{i-1}, y_1..y_l, x_{i+1}..x_k."""
    key = (i, m_y, perm)
    found = _shuffles.get(key)
    if found is None:
        m_x = len(perm) - m_y + 1
        phi = {j: perm[j - 1] if j < i else perm[m_y + j - 2]
               for j in range(1, m_x + 1) if j != i}
        psi = {k: perm[i + k - 2] for k in range(1, m_y + 1)}
        found = _shuffles.setdefault(key, ShuffleMap(i, m_x, m_y, phi, psi))
    return found


def _splice(x, i, y):
    """Raw factor/index lists with y's factors substituted for x's factor i.

    y's first factor takes over x's graft index at position i and the later
    y-factors are grafted where y's own slots landed in the partial
    composite; for i == 1 there is no prefix and y's indices are already
    ambient.  x's trailing indices are reused verbatim: the level-(n-1)
    partial composites before and after the splice are equal.
    """
    if i == 1:
        y_indices = y.indices
    elif x.level == 2 or y.m == 1:
        # at level 2 the partials are corollas and y's prongs fill
        # consecutive slots from x's index on (the psi of a level-1
        # composition); a single-factor y has no later index to translate
        s0 = x.indices[i - 2]
        y_indices = [s0] + [s0 + q - 1 for q in y.indices]
    else:
        prefix = x.factors[0]
        for f, idx in zip(x.factors[1:i - 1], x.indices[:i - 2]):
            prefix = _execute(prefix, idx, f)
        y_indices = _graft_indices(prefix, x.indices[i - 2], y)
    raw_factors = x.factors[:i - 1] + y.factors + x.factors[i:]
    raw_indices = (x.indices[:max(i - 2, 0)] + tuple(y_indices)
                   + x.indices[i - 1:])
    return raw_factors, raw_indices


class _Trace:
    """Slot provenance through a graft sequence.

    Holds a partial composite and ``labels``, where ``labels[s - 1]`` says
    where slot s of the partial came from: ``(tag, r)`` is slot r of the
    factor that the trace started from or grafted with that tag.  The slots
    one factor brings in, and more generally those of any sub-sequence
    grafted into them, keep their relative order in every later partial,
    because the position maps of a composition are strictly increasing.
    A level-1 partial is a corolla, known by its slot count, so it is not
    built: the step is a list splice.
    """

    __slots__ = ("partial", "labels")

    def __init__(self, head, tag):
        self.partial = head if head.level >= 2 else None
        self.labels = [(tag, r) for r in range(1, head.m + 1)]

    def graft(self, idx, f, tag):
        """Graft f into slot idx; returns the label of the consumed slot."""
        labels = self.labels
        consumed = labels[idx - 1]
        if self.partial is None:
            labels[idx - 1:idx] = [(tag, r) for r in range(1, f.arity + 1)]
            return consumed
        self.partial, sh = compose(self.partial, idx, f)
        moved = [None] * (len(labels) + f.m - 1)
        for s, p in sh.phi.items():
            moved[p - 1] = labels[s - 1]
        for r, p in sh.psi.items():
            moved[p - 1] = (tag, r)
        self.labels = moved
        return consumed


def _graft_indices(W, slot, v):
    """Ambient graft index of each of v's factors grafted into slot ``slot``
    of W, in v's order.

    Factor t + 1 grafts into v's local slot q, which in the composite is
    psi(q) of compose(W, slot, V), V the partial composite of v's first t
    factors: its total is the slot's content, as every partial's is.
    """
    indices = [slot]
    partial = v.factors[0]
    for f, q in zip(v.factors[1:], v.indices):
        indices.append(compose(W, slot, partial)[1].psi[q])
        partial = _execute(partial, q, f)
    return indices


def _lists(x):
    """x's child lists (level >= 2) as a tuple of tuples, kept on x from
    its second read: the first read leaves only the marker ``()``, so a
    value read once, as most are, holds no lists.  Equal rows of kept
    lists are one tuple.  Check mode recomputes every kept read."""
    kept = x._children
    if kept:
        if _CHECK and kept != tuple(map(tuple, _tree(x.factors, x.indices))):
            raise TrustViolation("kept child lists %r of %r are not its tree" % (kept, x))
        return kept
    lists = tuple(map(tuple, _tree(x.factors, x.indices)))
    x._children = () if kept is None else tuple([_rows.setdefault(r, r) for r in lists])
    return x._children or lists


def _tree(factors, indices):
    """The child lists of a valid graft sequence, from one raw trace; every
    graft order gives the same lists, since the swap rule changes indices,
    never the slot a factor fills.  An element's are read with ``_lists``."""
    trace = _Trace(factors[0], 1)
    children = [[0] * f.m for f in factors]
    for t, (f, idx) in enumerate(zip(factors[1:], indices), start=2):
        s, r = trace.graft(idx, f, t)
        children[s - 1][r - 1] = t
    for n, (s, r) in enumerate(trace.labels, start=1):
        children[s - 1][r - 1] = -n
    return children


def walk(factors, children, root=1):
    """Canonical element of the child lists below factor ``root``.

    Each factor grafts into the leftmost slot of the partial composite
    that holds a child.  Returns the element, trusted with the total the
    walk builds, and the entries it reached, in that order, each mapped to
    its place: a node to its canonical position, a leaf to its slot of the
    total.  At level 2 the rule is preorder, one stack pass, each node
    grafting into the slot after the leaves passed so far; a node must have
    one entry per prong.  Above, a trace from the root scans its slots:
    slots left of a graft never move, so the scan resumes there and the
    indices come out nondecreasing.
    """
    head = factors[root - 1]
    reached, out, indices = {root: 1}, [head], []
    if head.level == 1:
        stack, passed = [root], 0
        while stack:
            t = stack.pop()
            if t < 0:
                passed += 1
                reached[t] = passed
                continue
            f, entries = factors[t - 1], children[t - 1]
            if len(entries) != f.arity:
                raise MatchViolation("node %d has %d entries but %d prongs"
                                     % (t, len(entries), f.arity))
            if t != root:
                indices.append(passed + 1)
                out.append(f)
                reached[t] = len(out)
            stack.extend(reversed(entries))
        total = corolla(passed, allow_zero=True)
    else:
        trace, s = _Trace(head, root), 0
        while s < len(trace.labels):
            tag, r = trace.labels[s]
            t = children[tag - 1][r - 1]
            if t > 0:
                trace.graft(s + 1, factors[t - 1], t)
                indices.append(s + 1)
                out.append(factors[t - 1])
                reached[t] = len(out)
            else:
                s += 1
                reached[t] = s
        total = trace.partial
    return _trusted(head.level + 1, tuple(out), tuple(indices), total), reached


# -- normalization -------------------------------------------------------

def normalize(g, strategy="left"):
    """Sort a raw application sequence into canonical form.

    Returns the canonical element and the map input factor position ->
    canonical position (1-based tuple).  The swap rule rewrites adjacent
    out-of-order grafts in an order that ``strategy`` names ("left",
    "right" or "random:<seed>"), and every order ends here (``selftest``
    checks this against a swap-rule rewriter); so the name is only
    checked, and the order is read off the attachments (``_sort_sequence``).
    """
    if strategy not in ("left", "right", "random") and not str(strategy).startswith("random:"):
        raise UnknownStrategy("unknown strategy %r (left, right, random:<seed>)" % (strategy,))
    g = g.validate()
    return _sort_sequence(g.level, g.factors, g.indices)


def _sort_sequence(level, factors, indices, total=None):
    """Canonical order of a valid graft sequence, with its permutation.

    ``_compose``, ``graft_at_slot`` and ``normalize`` call it.  A sequence
    with no inversion is canonical and comes back as it is, trusted with
    the given total, else validated.  Otherwise the order is the ``walk``
    of its child lists.
    """
    if all(map(le, indices, indices[1:])):
        return (_trusted(level, tuple(factors), tuple(indices), total) if total
                else PlainElement(level, factors=factors, indices=indices),
                tuple(range(1, len(factors) + 1)))
    elem, reached = walk(factors, _tree(factors, indices))
    return elem, tuple([reached[t] for t in range(1, len(factors) + 1)])


# -- shuffles and axioms -------------------------------------------------

def shuffle(x, i, y):
    """The shuffle maps of compose(x, i, y)."""
    return compose(x, i, y)[1]


class Witness(NamedTuple):
    """Result of an axiom check; falsy when the two sides disagree."""
    ok: bool
    lhs: object
    rhs: object

    def __bool__(self):
        return self.ok


def check_associativity(x, i, y, j, z):
    """(x o_i y) o_{phi(j)} z  ==  (x o_j z) o_i y  for i < j."""
    if not 1 <= i < j <= x.m:
        raise RangeViolation("need 1 <= i < j <= m_x")
    xy, sh = compose(x, i, y)
    lhs = compose(xy, sh.phi[j], z)[0]
    rhs = compose(compose(x, j, z)[0], i, y)[0]
    return Witness(lhs == rhs, lhs, rhs)


def check_phi_long(x, i, y, j, z, k):
    """phi^(x o_j z, i, y)(phi^(x,j,z)(k)) == phi^(x o_i y, phi^(x,i,y)(j), z)(phi^(x,i,y)(k))."""
    if not 1 <= i < j < k <= x.m:
        raise RangeViolation("need i < j < k <= m_x")
    xz, sh_xz = compose(x, j, z)
    lhs = shuffle(xz, i, y).phi[sh_xz.phi[k]]
    xy, sh_xy = compose(x, i, y)
    rhs = shuffle(xy, sh_xy.phi[j], z).phi[sh_xy.phi[k]]
    return Witness(lhs == rhs, lhs, rhs)


def check_phi_short(x, i, y, j, k, t):
    """phi^(x,i,y)(j) == phi^(x o_k t, i, y)(j)  for i < j < k."""
    if not 1 <= i < j < k <= x.m:
        raise RangeViolation("need i < j < k <= m_x")
    lhs = shuffle(x, i, y).phi[j]
    xt = compose(x, k, t)[0]
    rhs = shuffle(xt, i, y).phi[j]
    return Witness(lhs == rhs, lhs, rhs)


# -- embedding, grafting, head decomposition ------------------------------

def embed(y):
    """The single-factor element [y|] one level up (defined for level >= 1)."""
    if not isinstance(y, PlainElement) or y.level < 1:
        raise LevelMismatch("embed is defined for level >= 1 (the point has no single-factor image)")
    return _trusted(y.level + 1, (y,), (), y)


class GraftResult(NamedTuple):
    element: "PlainElement"
    factor_phi: dict   # u-factor position -> position in result
    factor_psi: dict   # v-factor position -> position in result
    slot_phi: dict     # slot of G(u), except the grafted one -> slot of G(result)
    slot_psi: dict     # slot of G(v) -> slot of G(result)


def graft_at_slot(u, slot, v):
    """Append all of v's factors to u, the first into the given slot of G(u).

    Requires G(total_G(v)) to match the slot's content.  This is the gamma
    operation of the free structure: compose substitutes at a factor, graft
    subdivides a slot of the total.

    One path serves every level.  v's factors, at their ambient indices
    (``_graft_indices``), follow u's, and ``_sort_sequence`` orders them;
    the factor maps are its permutation.  The total and the slot maps are
    compose(G(u), slot, G(v)), a level-1 composition when u is a tree.
    """
    n = u.level
    if v.level != n or n < 2:
        raise LevelMismatch("graft needs equal levels >= 2")
    W = total_G(u)
    slot = _slot(slot)
    if slot < 1 or slot > W.m:
        raise RangeViolation("slot %d outside 1..%d" % (slot, W.m))
    if slots_F(W)[slot - 1] != total_G(total_G(v)):
        raise NotComposable(
            "total of the graft does not match slot %d of the base" % slot)

    total, sh = compose(W, slot, total_G(v))
    elem, perm = _sort_sequence(n, u.factors + v.factors, list(u.indices)
                                + _graft_indices(W, slot, v), total=total)
    return GraftResult(elem, {t: perm[t - 1] for t in range(1, u.m + 1)},
                       {t: perm[u.m + t - 1] for t in range(1, v.m + 1)},
                       sh.phi, sh.psi)


class Attachment(NamedTuple):
    slot: int              # slot of the head that the subtree subdivides
    element: "PlainElement"
    positions: tuple       # factor positions in z, in local order


class HeadForm(NamedTuple):
    head: "PlainElement"
    attachments: tuple

    def recompose(self):
        """Hang the attachments back on the embedded head (identity check)."""
        return _hang(self.head, [(a.slot, a.element) for a in self.attachments])[0]


def _hang(head, pairs):
    """``walk`` of embed(head) with each (slot, v) pair's tree hung at that
    slot: (element, reached).  Node 1 is the head, and v's factor t is node
    t plus the factor counts of head and the pieces before v; v's leaves
    are renumbered past those before, so that they stay distinct."""
    factors, children, leaves = [head], [list(range(-1, -head.m - 1, -1))], head.m
    for slot, v in pairs:
        if not 1 <= slot <= head.m or children[0][slot - 1] > 0:
            raise RangeViolation("slot %d is not a free slot of 1..%d" % (slot, head.m))
        base = len(factors)
        children[0][slot - 1] = base + 1
        factors += v.factors
        children += [[c + base if c > 0 else c - leaves for c in entries]
                     for entries in _lists(v)]
        leaves += v._total.m
    return walk(factors, children)


def decompose_head(z):
    """Split z into its first factor and the subtrees grafted into its slots.

    Each child of the head in z's child lists roots one attachment, the
    ``walk`` below it; slots come out strictly increasing and
    recomposition reproduces z.
    """
    if z.level < 2:
        raise LevelMismatch("head decomposition needs level >= 2")
    children = _lists(z)
    attachments = []
    for slot, t in enumerate(children[0], start=1):
        if t > 0:
            elem, reached = walk(z.factors, children, t)
            attachments.append(Attachment(slot, elem, tuple([u for u in reached if u > 0])))
    return HeadForm(z.factors[0], tuple(attachments))
