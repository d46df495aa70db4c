"""Finitely presented groups, coset enumeration, and tree presentations.

Words are tuples of nonzero ints: g means generator g, -g its inverse.
todd_coxeter runs relator-based (HLT) enumeration over the trivial
subgroup with immediate coincidence handling; when the table closes, the
number of live cosets is the group order.  The private order-only path
also enumerates over a subgroup given by generator words, which is how
`verify_symmetric_realization` bounds a tree presentation's order by a
chain of subgroups.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from math import factorial, prod
from operator import index
from typing import NamedTuple

from .elements import _CHECK, _ReadOnly
from .errors import NotBinary, Overflow, RangeViolation, SizeBound, TrustViolation
from .trees import _lists

# symmetric_presentation builds n(n-1)/2 relators; a coset enumeration of
# the n! cosets is out of reach long before this degree
MAX_SYM_DEGREE = 64
# a tree presentation has one generator per edge and quadratically many
# relators: bounded as the symmetric one of as many generators is
MAX_TREE_EDGES = MAX_SYM_DEGREE - 1
# todd_coxeter transposes this many cosets' columns into rows at a time, so
# that the table is never held twice
_BLOCK = 1024


def free_reduce(word):
    out = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


class Presentation(NamedTuple("Presentation", [("generators", int), ("relators", tuple)])):
    """Generators a1..a_generators and freely reduced relator words, all integers."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(cls, generators, relators):
        try:
            generators = index(generators)
            relators = tuple(free_reduce(map(index, r)) for r in relators)
        except TypeError:
            raise RangeViolation("generator count and letters must be integers") from None
        if generators < 0:
            raise RangeViolation("generator count must be nonnegative, got %d" % generators)
        for r in relators:
            for letter in r:
                if letter == 0 or abs(letter) > generators:
                    raise RangeViolation("letter %d outside generators 1..%d"
                                         % (letter, generators))
        return super().__new__(cls, generators, relators)

    def gap_words(self):
        """Plain-text relator words like a1*a2*a1*a2."""
        def show(r):
            return "*".join(("a%d" % g) if g > 0 else ("a%d^-1" % -g)
                            for g in r) or "1"
        return [show(r) for r in self.relators]

    def __str__(self):
        gens = ",".join("a%d" % (i + 1) for i in range(self.generators))
        return "<%s | %s>" % (gens, ", ".join(self.gap_words()))


def symmetric_presentation(n):
    """Adjacent-transposition presentation of the permutations of n letters."""
    if n < 2:
        raise RangeViolation("symmetric presentation needs n >= 2, got %d" % n)
    if n > MAX_SYM_DEGREE:
        raise SizeBound("symmetric presentation is limited to n <= %d, got %d"
                        % (MAX_SYM_DEGREE, n))
    rels = ([(i, i) for i in range(1, n)] + [(i, i + 1) * 3 for i in range(1, n - 1)]
            + [(i, j) * 2 for i in range(1, n) for j in range(i + 2, n)])
    return Presentation(n - 1, rels)


class CosetTable(NamedTuple):
    """A closed enumeration; its live count is the group order.

    `rows` holds the live cosets renumbered 0..live-1 in definition order:
    column 2(g-1) is generator g, column 2(g-1)+1 its inverse; for an
    involution both hold the same coset.  An enumeration that does not
    close raises `Overflow`, so `complete` is always True.  `defined` counts
    every coset ever defined (coset 0 included), `merged` those identified
    with an earlier one by coincidence; live = defined - merged, and order
    == live, but for `_chain_counts`, whose counts sum its steps' (order n!).
    """
    generators: int
    rows: list
    complete: bool
    order: int
    live: int
    defined: int
    merged: int


def todd_coxeter(pres, max_cosets=100_000):
    """Enumerate cosets of the trivial subgroup; deterministic HLT strategy.

    A generator g with the relator g*g or g^-1*g^-1 is an involution: it
    gets one self-inverse column, so a coset's g and g^-1 neighbours are
    defined once, and its square relators are not scanned.  Every other
    generator has a column and an inverse column.  `max_cosets` (an integer
    >= 1) caps the live cosets; a definition beyond it raises `Overflow`.
    The enumeration keeps one list per internal column, indexed by coset,
    so a relator step is one subscript.  A coset lost to a coincidence has
    its entries cleared as soon as it is processed but keeps its index, so
    memory follows the cosets defined: 8 B per column, and 16 B for the
    forest and the skip bits, about 64 B for S7's six columns (a row per
    live coset took about 152 B).  The table is returned only once it
    closes, and then has no undefined entry (`_enumerate`); its columns are
    compacted in place and transposed into the public rows.

    A closed relator cycle is scanned once: when the scan from coset a
    closes, every later coset b on the cycle from which the relator reads
    again, forwards or backwards, gets the relator's bit, and b skips that
    scan.  It would end where it began (a merge maps a closed cycle onto a
    closed one), so the definitions, coincidences and table are those of
    scanning every relator from every coset.  A coset visits only the bits
    of its unskipped scans, in relator order; under NBASE_CHECK=1 it walks
    the skipped ones too, which must close.  Callers that read only the
    order (`verify_symmetric_realization`, `group order`) take
    `_coset_counts`, which builds no public rows.
    """
    tab, p, col, _, merged = _enumerate(pres, max_cosets)
    # Compact: live cosets keep their order and are renumbered, a new number
    # k reusing the int of coset k when that coset is live (p[k] is then k).
    # Each column moves its live entries down, renumbered, in place.  The
    # columns are then transposed in public order, an involution's column
    # filling both of its public columns (no generator: one empty row), a
    # block at a time from the end, each block cut from the columns first.
    defined = len(p)
    live = [i for i in range(defined) if p[i] == i]
    new_id = [None] * defined
    for k, i in enumerate(live):
        new_id[i] = p[k] if p[k] == k else k
    for cl in tab:
        cl[:] = [new_id[cl[i]] for i in live]
    k = len(live)
    del p, new_id, live
    place = [col[s * l] for l in range(1, pres.generators + 1) for s in (1, -1)]
    rows = [None] * k
    for start in reversed(range(0, k, _BLOCK)):
        cut = [cl[start:] for cl in tab]
        for cl in tab:
            del cl[start:]
        rows[start:start + _BLOCK] = map(list, zip(*[cut[c] for c in place])) if place else [[]]
    return CosetTable(pres.generators, rows, True, k, k, defined, merged)


def _coset_counts(pres, max_cosets=100_000, subgroup=()):
    """`todd_coxeter` with rows None and no renumbering.

    With `subgroup` words it counts the cosets of the subgroup they
    generate: the order is then that subgroup's index.
    """
    _, p, _, live, merged = _enumerate(pres, max_cosets, subgroup)
    return CosetTable(pres.generators, None, True, live, live, len(p), merged)


def _cap(max_cosets):
    try:
        max_cosets = index(max_cosets)
    except TypeError:
        raise RangeViolation("coset cap must be an integer, got %s"
                             % type(max_cosets).__name__) from None
    if max_cosets < 1:
        raise RangeViolation("coset cap must be at least 1, got %d" % max_cosets)
    return max_cosets


def _enumerate(pres, max_cosets, subgroup=()):
    """HLT: (columns, coincidence forest, letter -> column, live, merged).

    The table is stored as columns: tab[c][a] is the coset that column c
    leads coset a to.  Coset a is live when p[a] == a; a dead coset's
    entries are None.  Coset 0 is the subgroup generated by the `subgroup`
    words (letters of `pres`): each is scanned and filled at coset 0 before
    the main loop, as HLT does, so the table enumerates that subgroup's
    cosets.  HLT fills every column of a coset as it processes it, and
    coincidences refill the entries they touch, so a closed table has no
    undefined entry (Holt, Eick & O'Brien 2005, 5.1); under NBASE_CHECK=1
    one raises `TrustViolation`.
    """
    max_cosets = _cap(max_cosets)
    g = pres.generators
    squares = {r for r in pres.relators if len(r) == 2 and r[0] == r[1]}
    involutions = {abs(r[0]) for r in squares}
    # col[l] is the internal column of letter l, inv[c] the column of the
    # inverse letter; an involution's column is its own inverse.
    col = {}
    inv = []
    for l in range(1, g + 1):
        c = len(inv)
        if l in involutions:
            col[l] = col[-l] = c
            inv.append(c)
        else:
            col[l], col[-l] = c, c + 1
            inv.extend((c + 1, c))
    ncols = len(inv)
    # tab[c][a] is the entry of coset a in column c, None while undefined;
    # skip[a] holds the bits of the scans coset a skips, None once processed.
    tab = [[None] for _ in range(ncols)]
    pairs = [(tab[c], tab[inv[c]]) for c in range(ncols)]
    # Per relator: its column lists and their inverses, the last position, its
    # marks, and its bit.  A mark pairs a column with whether the word reads
    # again from the cycle position q after it, forwards (a rotation) or
    # backwards (the inverse columns from q down, a rotation of `back`);
    # marks are None if only the full cycle does.  scans[i] holds the
    # relator whose bit 2^(i-1) has length i: the first relator has the top
    # bit, so bit_length finds the next relator in order.
    scans = [None]
    for r in reversed([r for r in pres.relators if r and r not in squares]):
        cols = tuple(col[l] for l in r)
        icols = tuple(inv[c] for c in cols)
        back = icols[::-1]
        again = [cols[q:] + cols[:q] == cols or back[-q:] + back[:-q] == cols
                 for q in range(1, len(cols) + 1)]
        scans.append(([tab[c] for c in cols], [tab[c] for c in icols], len(cols) - 1,
                      [(tab[c], m) for c, m in zip(cols, again)] if any(again[:-1]) else None,
                      1 << len(scans) - 1, cols))
    full = (1 << len(scans) - 1) - 1

    skip = [0]
    p = [0]
    live = 1
    merged = 0

    def rep(a):
        root = a
        while p[root] != root:
            root = p[root]
        while p[a] != root:
            p[a], a = root, p[a]
        return root

    def define(a, cl, icl):
        nonlocal live
        if live >= max_cosets:
            raise Overflow("coset cap %d exceeded: defined %d, live %d, merged %d"
                           % (max_cosets, len(p), live, merged))
        b = len(p)
        for c in tab:
            c.append(None)
        icl[b] = a
        cl[a] = b
        p.append(b)
        skip.append(0)
        live += 1
        return b

    def merge(a, b, queue):
        nonlocal live, merged
        a, b = rep(a), rep(b)
        if a != b:
            if b < a:
                a, b = b, a
            p[b] = a
            queue.append(b)
            live -= 1
            merged += 1

    def coincidence(a, b):
        queue = deque()
        merge(a, b, queue)
        while queue:
            dead = queue.popleft()
            for cl, icl in pairs:
                d = cl[dead]
                if d is None:
                    continue
                cl[dead] = None
                if icl[d] == dead:
                    icl[d] = None
                mu, nu = rep(dead), rep(d)
                if cl[mu] is not None:
                    merge(nu, cl[mu], queue)
                elif icl[nu] is not None:
                    merge(mu, icl[nu], queue)
                else:
                    cl[mu] = nu
                    icl[nu] = mu
            skip[dead] = None

    def scan_and_fill(a, cls, icls, last):
        f, b = a, a
        fi, bi = 0, last
        while True:
            while fi <= bi:
                nxt = cls[fi][f]
                if nxt is None:
                    break
                f = nxt
                fi += 1
            while bi >= fi:
                nxt = icls[bi][b]
                if nxt is None:
                    break
                b = nxt
                bi -= 1
            if bi < fi:
                if f != b:
                    coincidence(f, b)
                return
            if bi == fi:
                cls[fi][f] = b
                icls[fi][b] = f
                return
            f = define(f, cls[fi], icls[fi])
            fi += 1

    for w in subgroup:
        cols = [col[l] for l in w]
        scan_and_fill(0, [tab[c] for c in cols], [tab[inv[c]] for c in cols], len(cols) - 1)
    a = 0
    while a < len(p):
        bits = skip[a]  # None for a dead coset
        todo = 0 if bits is None else full if _CHECK else full & ~bits
        while todo:
            cls, icls, last, marks, bit, cols = scans[todo.bit_length()]
            todo ^= bit
            f = a
            for cl in cls:
                f = cl[f]
                if f is None:
                    break
            if bits & bit:
                if f != a:
                    raise TrustViolation("skipped scan of columns %r does not close"
                                         " at coset %d" % (cols, a))
                continue
            if f != a:
                scan_and_fill(a, cls, icls, last)
                if p[a] != a:
                    break
            if marks:
                f = a
                for cl, mark in marks:
                    f = cl[f]
                    if mark and f > a:
                        skip[f] |= bit
        if p[a] == a:
            skip[a] = None
            for cl, icl in pairs:
                if cl[a] is None:
                    define(a, cl, icl)
        a += 1
    if _CHECK:
        live_ids = [a for a in range(len(p)) if p[a] == a]
        holes = [a for cl in tab for a in live_ids if cl[a] is None]
        if holes:
            raise TrustViolation("closed coset table leaves coset %d undefined" % min(holes))
    return tab, p, col, live, merged


# -- tree presentations ----------------------------------------------------


class EdgeStructure(NamedTuple):
    """Adjacency tree of the factors of a binary element."""
    node_count: int
    edges: tuple          # sorted (u, v) pairs with u < v, 1-based factors
    incidence: dict       # node -> tuple of edge numbers (1-based), read-only


def edge_structure(x):
    if x.level != 2:
        raise NotBinary("binary elements live at level 2")
    if any(f.arity != 2 for f in x.factors):
        raise NotBinary("all entries must have arity 2")
    edges = sorted((s, t) for s, entries in enumerate(_lists(x), start=1)
                   for t in entries if t > 0)
    incidence = {}
    for num, (u, v) in enumerate(edges, start=1):
        incidence.setdefault(u, []).append(num)
        incidence.setdefault(v, []).append(num)
    incidence = _ReadOnly({k: tuple(v) for k, v in incidence.items()})
    return EdgeStructure(x.m, tuple(edges), incidence)


def tree_presentation(x):
    """Edge-generator presentation of the node symmetries of a binary element.

    Generators are the adjacency-tree edges in (min, max) order; relators:
    squares for every edge, third powers of products of edges sharing a
    node, the twist relator squared for each triple at a common node, and
    commutators squared for disjoint edges.
    """
    es = edge_structure(x)
    n_edges = len(es.edges)
    if n_edges > MAX_TREE_EDGES:
        raise SizeBound("tree presentation is limited to %d edges, got %d"
                        % (MAX_TREE_EDGES, n_edges))
    rels = [(i, i) for i in range(1, n_edges + 1)]
    rels += [(i, j) * (3 if set(es.edges[i - 1]) & set(es.edges[j - 1]) else 2)
             for i, j in combinations(range(1, n_edges + 1), 2)]
    # edges share at most one node, and a node has at most three edges
    rels += [(i, j, k, j) * 2
             for i, j, k in sorted(inc for inc in es.incidence.values() if len(inc) == 3)]
    return Presentation(n_edges, rels), es


# -- concrete symmetric-group realization ----------------------------------


def schreier_sims_order(gens, n):
    """Order of the group generated by permutation tuples over 1..n.

    Knuth's compact Schreier-Sims ("Efficient representation of perm
    groups", Combinatorica 11, 1991): reps[k] maps each point of the orbit
    of k, under the generators of level k, to an element that fixes 0..k-1
    (0-based) and sends k there.  Every product of a rep with a generator
    of its level is sifted through the chain; a residue that the chain does
    not hold becomes a generator one level down.  The order is the product
    of the orbit lengths.  The work runs on a last-in-first-out worklist,
    in the order of Knuth's recursion but with no Python recursion.  Work
    and memory are polynomial in n and the generator count; no group
    element is listed.
    """
    ident = tuple(range(n))
    reps = [{k: (ident, ident)} for k in range(n)]  # point -> (rep, inverse)
    level = [[] for _ in range(n)]

    def mul(a, b):  # apply a, then b
        return tuple([b[i] for i in a])

    # a task (k, a, b, add) stands for h = a then b, multiplied when taken so
    # that waiting tasks hold no new tuples.  add: h fixes 0..k-1 and joins
    # level k unless the chain holds it; otherwise h is in the group of level
    # k, and its image of k is a new orbit point or its residue goes one
    # level down
    todo = [(0, ident, tuple(v - 1 for v in g), True) for g in reversed(gens)]
    while todo:
        k, a, b, add = todo.pop()
        h = mul(a, b)
        if add:
            g, j = h, k
            while j < n and g[j] in reps[j]:
                g = mul(g, reps[j][g[j]][1])
                j += 1
            if j < n:
                level[k].append(h)
                todo.extend((k, u, h, False) for u, _ in reps[k].values())
        elif h[k] in reps[k]:
            todo.append((k + 1, h, reps[k][h[k]][1], True))
        else:
            reps[k][h[k]] = (h, tuple(sorted(ident, key=h.__getitem__)))
            todo.extend((k, h, g, False) for g in level[k])
    return prod(len(orbit) for orbit in reps)


class RealizationReport(NamedTuple):
    nodes: int
    edges: int
    relators_hold: bool
    generated_order: int
    enumerated_order: int
    isomorphic: bool


def _chain_counts(pres, es, cap):
    """A complete order-n! table, the counts summed over a chain, or None.

    Nodes are taken breadth-first from node 1, so the first k span a
    subtree T_k, and the edge reaching node k becomes generator k - 1.
    Step k enumerates the cosets of H = <edges of T_(k-1)> in G_k, the
    group of the edges of T_k and the relators of `pres` in them.  H is an
    image of G_(k-1), so if every step closes at k cosets, |G_n| <= n!.
    Any other count, or an `Overflow` under `cap`, proves nothing: None.
    """
    order, number = [1], {}
    for u in order:
        for e in es.incidence.get(u, ()):
            if e not in number:
                number[e] = len(order)
                order.append(sum(es.edges[e - 1]) - u)
    tops = [[] for _ in order]
    for r in pres.relators:
        r = tuple(number[l] if l > 0 else -number[-l] for l in r)
        tops[max(map(abs, r))].append(r)
    rels, defined, merged = [], 0, 0
    for k in range(2, len(order) + 1):
        rels += tops[k - 1]
        try:
            ct = _coset_counts(Presentation(k - 1, rels), cap, [(h,) for h in range(1, k - 1)])
        except Overflow:
            return None
        if ct.order != k:
            return None
        defined += ct.defined
        merged += ct.merged
    return CosetTable(pres.generators, None, True, factorial(len(order)),
                      defined - merged, defined, merged)


def verify_symmetric_realization(x, max_cosets=100_000):
    """Realize the edge generators as node transpositions and compare orders.

    Every relator must map to the identity permutation: its letters swap
    node labels along their edges in one list, which must end as it began.
    The transpositions must generate all n! node permutations, and the
    presentation must define a group of the same order.  The generated
    order comes from Schreier-Sims on the transpositions, independently of
    the coset enumerations it is compared with.

    If n! exceeds `max_cosets`, the full enumeration of the presentation
    runs first, as `_coset_counts` with no public rows, and raises
    `Overflow` before Schreier-Sims runs.  Otherwise, once the relators
    hold and Schreier-Sims gives n! (so |G| >= n!), the order is bounded
    by `_chain_counts`: n - 1 enumerations of k cosets each (Todd-Coxeter
    over a subgroup, Holt, Eick & O'Brien 2005, ch. 5, along the induction
    of Coxeter & Moser 1957), which prove |G| <= n!.  A chain that does
    not close proves nothing, and the full enumeration under `max_cosets`
    decides.  Under NBASE_CHECK=1 a chain that closes is compared with the
    full enumeration under the same cap, and a mismatch (not an `Overflow`)
    raises `TrustViolation`.
    """
    pres, es = tree_presentation(x)
    n = es.node_count

    def closes(word):
        labels = list(range(1, n + 1))
        for letter in word:
            u, v = es.edges[abs(letter) - 1]
            labels[u - 1], labels[v - 1] = labels[v - 1], labels[u - 1]
        return labels == sorted(labels)

    holds = all(closes(r) for r in pres.relators)
    sym = factorial(n)
    ct = _coset_counts(pres, max_cosets) if sym > _cap(max_cosets) else None
    gen_order = schreier_sims_order([tuple(v if i == u else u if i == v else i
                                           for i in range(1, n + 1))
                                     for u, v in es.edges], n)
    if ct is None:
        ct = holds and gen_order == sym and _chain_counts(pres, es, max_cosets)
        if not ct:
            ct = _coset_counts(pres, max_cosets)
        elif _CHECK:
            try:
                check = _coset_counts(pres, max_cosets).order
            except Overflow:  # its peak may exceed a cap that the chain stays under
                check = ct.order
            if check != ct.order:
                raise TrustViolation("chain of subgroups gives order %d, full enumeration %d"
                                     % (ct.order, check))
    iso = holds and gen_order == sym == ct.order
    return RealizationReport(n, len(es.edges), holds, gen_order, ct.order, iso)
