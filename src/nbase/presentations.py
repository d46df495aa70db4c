"""Finitely presented groups, coset enumeration, and tree presentations.

Words are tuples of nonzero ints: g means generator g, -g its inverse.
todd_coxeter runs relator-based (HLT) enumeration over the trivial
subgroup with immediate coincidence handling; when the table closes, the
number of live cosets is the group order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import factorial

from .errors import NotBinary, Overflow, RangeViolation
from .units import _owner_of_prong


def free_reduce(word):
    out = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


@dataclass(frozen=True)
class Presentation:
    generators: int
    relators: tuple

    def __post_init__(self):
        object.__setattr__(self, "relators",
                           tuple(free_reduce(r) for r in self.relators))
        for r in self.relators:
            for letter in r:
                if letter == 0 or abs(letter) > self.generators:
                    raise RangeViolation("letter %d outside generators 1..%d"
                                         % (letter, self.generators))

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
    rels = []
    for i in range(1, n):
        rels.append((i, i))
    for i in range(1, n - 1):
        rels.append((i, i + 1, i, i + 1, i, i + 1))
    for i in range(1, n):
        for j in range(i + 2, n):
            rels.append((i, j, i, j))
    return Presentation(n - 1, tuple(rels))


@dataclass
class CosetTable:
    """Enumeration state; complete tables expose the group order."""
    generators: int
    rows: list = field(default_factory=list)
    complete: bool = False
    order: int = None
    live: int = None


def todd_coxeter(pres, max_cosets=100_000):
    """Enumerate cosets of the trivial subgroup; deterministic HLT strategy."""
    g = pres.generators
    ncols = 2 * g

    def col(letter):
        return 2 * (letter - 1) if letter > 0 else 2 * (-letter - 1) + 1

    def inv_col(c):
        return c ^ 1

    table = [[None] * ncols]
    p = [0]

    def rep(a):
        while p[a] != a:
            a = p[a]
        return a

    def define(a, c):
        if len(table) >= max_cosets:
            raise Overflow("coset cap %d exceeded" % max_cosets)
        b = len(table)
        table.append([None] * ncols)
        p.append(b)
        table[a][c] = b
        table[b][inv_col(c)] = a
        return b

    def merge(a, b, queue):
        a, b = rep(a), rep(b)
        if a != b:
            a, b = min(a, b), max(a, b)
            p[b] = a
            queue.append(b)

    def coincidence(a, b):
        queue = []
        merge(a, b, queue)
        while queue:
            dead = queue.pop(0)
            for c in range(ncols):
                d = table[dead][c]
                if d is None:
                    continue
                table[dead][c] = None
                if table[d][inv_col(c)] == dead:
                    table[d][inv_col(c)] = None
                mu, nu = rep(dead), rep(d)
                if table[mu][c] is not None:
                    merge(nu, table[mu][c], queue)
                elif table[nu][inv_col(c)] is not None:
                    merge(mu, table[nu][inv_col(c)], queue)
                else:
                    table[mu][c] = nu
                    table[nu][inv_col(c)] = mu

    def scan_and_fill(a, word):
        cols = [col(l) for l in word]
        f, b = a, a
        fi, bi = 0, len(cols) - 1
        while True:
            while fi <= bi and table[f][cols[fi]] is not None:
                f = table[f][cols[fi]]
                fi += 1
            if fi > bi:
                if f != b:
                    coincidence(f, b)
                return
            while bi >= fi and table[b][inv_col(cols[bi])] is not None:
                b = table[b][inv_col(cols[bi])]
                bi -= 1
            if bi < fi:
                if f != b:
                    coincidence(f, b)
                return
            if bi == fi:
                table[f][cols[fi]] = b
                table[b][inv_col(cols[fi])] = f
                return
            f = define(f, cols[fi])
            fi += 1

    a = 0
    while a < len(table):
        if rep(a) != a:
            a += 1
            continue
        for r in pres.relators:
            if not r:
                continue
            scan_and_fill(a, r)
            if rep(a) != a:
                break
        if rep(a) == a:
            for c in range(ncols):
                if table[a][c] is None:
                    define(a, c)
        a += 1

    live = [i for i in range(len(table)) if rep(i) == i]
    ct = CosetTable(generators=g, rows=[table[i][:] for i in live])
    ct.live = len(live)
    ct.complete = all(all(e is not None for e in table[i]) for i in live)
    if ct.complete:
        ct.order = len(live)
    return ct


# -- tree presentations ----------------------------------------------------


@dataclass(frozen=True)
class EdgeStructure:
    """Adjacency tree of the factors of a binary element."""
    node_count: int
    edges: tuple          # sorted (u, v) pairs with u < v, 1-based factors
    incidence: dict       # node -> tuple of edge numbers (1-based)


def edge_structure(x):
    if x.level != 2:
        raise NotBinary("binary elements live at level 2")
    if any(f.arity != 2 for f in x.factors):
        raise NotBinary("all entries must have arity 2")
    edges = []
    for t in range(2, x.m + 1):
        prong = x.indices[t - 2]
        parent, _q = _owner_of_prong(list(x.factors[:t - 1]),
                                     list(x.indices[:t - 2]), prong)
        edges.append(tuple(sorted((parent, t))))
    edges.sort()
    incidence = {}
    for num, (u, v) in enumerate(edges, start=1):
        incidence.setdefault(u, []).append(num)
        incidence.setdefault(v, []).append(num)
    incidence = {k: tuple(v) for k, v in incidence.items()}
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
    rels = []
    for i in range(1, n_edges + 1):
        rels.append((i, i))
    for i, j in combinations(range(1, n_edges + 1), 2):
        shared = set(es.edges[i - 1]) & set(es.edges[j - 1])
        if shared:
            rels.append((i, j, i, j, i, j))
        else:
            rels.append((i, j, i, j))
    for i, j, k in combinations(range(1, n_edges + 1), 3):
        common = set(es.edges[i - 1]) & set(es.edges[j - 1]) & set(es.edges[k - 1])
        if common:
            rels.append((i, j, k, j, i, j, k, j))
    return Presentation(n_edges, tuple(rels)), es


# -- concrete symmetric-group realization ----------------------------------


def _perm_mul(a, b):
    """Right-to-left composition of permutation tuples (apply b, then a)."""
    return tuple(a[b[i] - 1] for i in range(len(a)))


def _word_to_perm(word, gens, n):
    perm = tuple(range(1, n + 1))
    for letter in word:
        base = gens[abs(letter) - 1]
        perm = _perm_mul(perm, base)  # transpositions are involutions
    return perm


def _closure_order(gens, n):
    identity = tuple(range(1, n + 1))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = _perm_mul(g, p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


@dataclass(frozen=True)
class RealizationReport:
    nodes: int
    edges: int
    relators_hold: bool
    generated_order: int
    enumerated_order: int
    isomorphic: bool


def verify_symmetric_realization(x, max_cosets=100_000):
    """Realize the edge generators as node transpositions and compare orders.

    Every relator must map to the identity permutation, the transpositions
    must generate all node permutations, and coset enumeration of the
    presentation must give the same factorial order.
    """
    pres, es = tree_presentation(x)
    n = es.node_count
    gens = []
    for (u, v) in es.edges:
        perm = list(range(1, n + 1))
        perm[u - 1], perm[v - 1] = v, u
        gens.append(tuple(perm))
    identity = tuple(range(1, n + 1))
    holds = all(_word_to_perm(r, gens, n) == identity for r in pres.relators)
    gen_order = _closure_order(gens, n) if gens else 1
    ct = todd_coxeter(pres, max_cosets=max_cosets)
    enum_order = ct.order if ct.complete else -1
    iso = holds and gen_order == factorial(n) and enum_order == factorial(n)
    return RealizationReport(n, len(es.edges), holds, gen_order, enum_order, iso)
