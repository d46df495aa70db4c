"""Named property batteries runnable from the command line.

Each suite returns a SuiteReport, its pass and fail counts and the first
failure's text, which a `--jobs` worker pickles back; results are
deterministic per (seed, size).  Sizes: small keeps everything under a few
seconds, medium matches the acceptance-scale bounds.
"""

from __future__ import annotations

import random

from . import ordinals
from .elements import (
    GammaSequence,
    check_associativity,
    check_phi_long,
    check_phi_short,
    compose,
    make,
    normalize,
    shuffle,
    total_G,
)
from .enumeration import _enumerate, catalan, count_binary, enumerate_elements
from .errors import UnknownStrategy
from .grammar import format_element
from .morphisms import complete_square, enumerate_morphisms
from .presentations import symmetric_presentation, todd_coxeter, verify_symmetric_realization
from .randgen import (
    random_composable_triple,
    random_gamma,
    random_phi_quad,
)
from .units import check_runital_bijection


class SuiteReport:
    __slots__ = ("suite", "passed", "failed", "first_failure")

    def __init__(self, suite):
        self.suite, self.passed, self.failed, self.first_failure = suite, 0, 0, None

    def check(self, ok, describe):
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = describe()

    def summary(self):
        line = "suite %-10s pass %5d fail %3d" % (self.suite, self.passed, self.failed)
        if self.first_failure:
            line += "  first failure: %s" % self.first_failure
        return line


_SIZES = {
    "small": {"triples": 200, "gammas": 100, "pairs_nodes": 5, "mor_nodes": 4},
    "medium": {"triples": 2000, "gammas": 500, "pairs_nodes": 6, "mor_nodes": 5},
}


def _composable_pairs_level2(max_nodes):
    """Every (x, i, y) at level 2 within the node bound, arities up to 4."""
    pool = _enumerate(2, max_nodes - 1, 4, 1)
    by_nodes = {k: [e for e in pool if e.m == k] for k in range(1, max_nodes)}
    for kx in range(1, max_nodes):
        for x in by_nodes[kx]:
            for i in range(1, x.m + 1):
                target = x.factors[i - 1]
                for ky in range(1, max_nodes - kx + 1):
                    for y in by_nodes[ky]:
                        if total_G(y) == target:
                            yield x, i, y


def suite_axioms(seed, size):
    rep = SuiteReport("axioms")
    cfg = _SIZES[size]
    rng = random.Random(seed)
    # exhaustive associativity at level 2 within the node bound
    elems = enumerate_elements(2, cfg["pairs_nodes"] - 1, 3)
    pieces = enumerate_elements(2, 2, 3)
    for x in elems:
        if x.m < 2:
            continue
        for i in range(1, x.m):
            for j in range(i + 1, x.m + 1):
                for y in pieces:
                    if total_G(y) != x.factors[i - 1]:
                        continue
                    for z in pieces:
                        if total_G(z) != x.factors[j - 1]:
                            continue
                        w = check_associativity(x, i, y, j, z)
                        rep.check(bool(w), lambda: "assoc %s %d %s %d %s" % (
                            format_element(x), i, format_element(y), j, format_element(z)))
    # randomized at levels 3 and 4
    for level in (3, 4):
        for _ in range(cfg["triples"] // 4):
            x, i, y, j, z = random_composable_triple(level, rng, grafts=2, max_arity=3)
            w = check_associativity(x, i, y, j, z)
            rep.check(bool(w), lambda: "assoc level %d %s" % (level, format_element(x)))
    # phi coherence
    for level in (2, 3):
        for _ in range(cfg["triples"] // 8):
            x, i, y, j, z, k, t = random_phi_quad(level, rng, grafts=3, max_arity=3)
            rep.check(bool(check_phi_long(x, i, y, j, z, k)),
                      lambda: "phi-long level %d %s" % (level, format_element(x)))
            rep.check(bool(check_phi_short(x, i, y, j, k, t)),
                      lambda: "phi-short level %d %s" % (level, format_element(x)))
    return rep


def suite_oracle(seed, size):
    """compose against node substitution on child lists.

    An in-package cross-check (the independent oracle is in the test
    suite): y's child lists replace node i of x, and the tree below node 1
    is read back, to compare with the splice-and-sort composition.
    """
    from .trees import _below_root, splice, to_tree

    rep = SuiteReport("oracle")
    cfg = _SIZES[size]
    for x, i, y in _composable_pairs_level2(cfg["pairs_nodes"]):
        children = to_tree(x)
        k = x.m
        # node t of y becomes node k + t, and its leaf n takes the entry at
        # prong n of node i
        children += [[k + c if c > 0 else children[i - 1][-c - 1] for c in entries]
                     for entries in to_tree(y)]
        if i == 1:
            children[0] = children[k]
        else:
            splice(children, i, [k + 1])
        expected = _below_root(children)[0]
        got, sh = compose(x, i, y)
        rep.check(got == expected,
                  lambda: "compose %s %d %s" % (format_element(x), i,
                                                format_element(y)))
    return rep


def swap_normalize(g, strategy="left"):
    """The swap rule, rewritten to the end: the reference for ``normalize``.

    Grafting at b and then at a < b equals grafting at a first and then at
    phi^(w,a,v)(b), w the partial composite before the pair and v the
    factor moved to a.  strategy picks the inversion to rewrite ("left",
    "right" or "random:<seed>"); each pass rebuilds the partials.
    """
    g = g.validate()
    factors, indices, pos = list(g.factors), list(g.indices), list(range(len(g.factors)))
    if strategy not in ("left", "right", "random") and not str(strategy).startswith("random:"):
        raise UnknownStrategy("no swap-rule strategy %r" % (strategy,))
    rng = random.Random(strategy.partition(":")[2] or "0")
    while True:
        inversions = [t for t in range(len(indices) - 1) if indices[t] > indices[t + 1]]
        if not inversions:
            break
        t = (inversions[0] if strategy == "left" else inversions[-1] if strategy == "right"
             else rng.choice(inversions))
        w = factors[0]
        for f, b in zip(factors[1:t + 1], indices):
            w = compose(w, b, f)[0]
        b, a = indices[t:t + 2]
        indices[t:t + 2] = a, shuffle(w, a, factors[t + 2]).phi[b]
        factors[t + 1:t + 3] = factors[t + 2], factors[t + 1]
        pos[t + 1:t + 3] = pos[t + 2], pos[t + 1]
    return make(g.level, factors, indices), tuple(
        p + 1 for p in sorted(range(len(pos)), key=pos.__getitem__))


def suite_confluence(seed, size):
    rep = SuiteReport("confluence")
    cfg = _SIZES[size]
    rng = random.Random(seed)
    for level in (2, 3):
        for _ in range(cfg["gammas"]):
            g = random_gamma(level, rng, steps=4)
            want = normalize(g)
            for strategy in ("left", "right", "random:%d" % rng.randint(0, 10 ** 6)):
                rep.check(swap_normalize(g, strategy) == want,
                          lambda: "confluence %s level %d %r" % (strategy, level, g))
            again, p_again = normalize(
                GammaSequence(level, want[0].factors, want[0].indices))
            rep.check(again == want[0] and p_again == tuple(range(1, again.m + 1)),
                      lambda: "idempotence %s" % format_element(again))
    return rep


def suite_morphisms(seed, size):
    rep = SuiteReport("morphisms")
    cfg = _SIZES[size]
    bound = cfg["mor_nodes"]
    elems = [e for e in enumerate_elements(2, bound, 3)]
    for x in elems[: 400 if size == "small" else len(elems)]:
        ones = enumerate_morphisms(x, "one")
        twos = enumerate_morphisms(x, "two")
        for f in ones[:6]:
            inv = f.inverse()
            rep.check(f.then(inv).is_identity(),
                      lambda: "one-inverse %s" % format_element(x))
        for g in twos[:6]:
            rep.check(g.then(g.inverse()).is_identity(),
                      lambda: "two-inverse %s" % format_element(x))
        for f in ones[:4]:
            for g in twos[:4]:
                sq = complete_square(f, g)
                rep.check(sq.commutes(), lambda: "square %s" % format_element(x))
    return rep


def suite_ordinals(seed, size):
    rep = SuiteReport("ordinals")
    rng = random.Random(seed)
    count = 100 if size == "small" else 500
    for n in (1, 2, 3, 4):
        done = 0
        while done < count:
            beta = random_normal_form(rng, n, depth=4 if n > 1 else 0)
            if beta.is_zero() or ordinals.cmp(beta, ordinals._phi_bound(n)) >= 0:
                continue
            z = ordinals.encode(beta, n)
            back = ordinals.eval_phin(z)
            rep.check(ordinals.cmp(back, beta) == 0,
                      lambda: "roundtrip n=%d %s" % (n, ordinals.format_ordinal(beta)))
            done += 1
    return rep


def random_normal_form(rng, n, depth):
    """Random notation below phi_n(0) with bounded nesting."""
    parts = [random_term(rng, n, depth) for _ in range(rng.randint(1, 3))]
    import functools
    parts.sort(key=functools.cmp_to_key(ordinals.cmp), reverse=True)
    acc = ordinals.ZERO
    for p in parts:
        acc = ordinals.add(acc, p)
    return acc


def random_term(rng, n, depth):
    if depth <= 0 or n == 1 or rng.random() < 0.35:
        return ordinals.from_int(rng.randint(1, 4))
    a = rng.randint(1, n - 1)
    b = ordinals.ZERO if rng.random() < 0.4 else random_normal_form(rng, n, depth - 1)
    return ordinals.phi(ordinals.from_int(a), b)


def _relators_hold(pres, rows):
    """Whether every relator and its inverse lead each coset of the table
    back to itself; column 2(g-1) of a row is generator g, 2(g-1)+1 its
    inverse."""
    for r in pres.relators + tuple(tuple(-l for l in reversed(r))
                                   for r in pres.relators):
        cols = [2 * l - 2 if l > 0 else -2 * l - 1 for l in r]
        for coset in range(len(rows)):
            x = coset
            for c in cols:
                x = rows[x][c]
            if x != coset:
                return False
    return True


def suite_groups(seed, size):
    rep = SuiteReport("groups")
    import math
    top = 5 if size == "small" else 6
    for n in range(2, top + 1):
        pres = symmetric_presentation(n)
        ct = todd_coxeter(pres)
        rep.check(ct.order == math.factorial(n),
                  lambda: "sym %d -> %s" % (n, ct.order))
        rep.check(ct.complete and _relators_hold(pres, ct.rows),
                  lambda: "sym %d: a relator fails at some coset" % n)
    for x in _enumerate(2, top - 1, 2, 1):
        if all(f.arity == 2 for f in x.factors):
            r = verify_symmetric_realization(x)
            rep.check(r.isomorphic, lambda: "tree %s" % format_element(x))
    return rep


def suite_counts(seed, size):
    rep = SuiteReport("counts")
    expected = [1, 2, 5, 14, 42, 132, 429, 1430]
    top = 6 if size == "small" else 8
    for k in range(1, top + 1):
        rep.check(count_binary(k) == expected[k - 1],
                  lambda: "count_binary(%d)=%d" % (k, count_binary(k)))
        rep.check(count_binary(k) == catalan(k),
                  lambda: "catalan mismatch at %d" % k)
    rec = [1]
    for k in range(1, top + 1):
        rec.append(sum(rec[i] * rec[k - 1 - i] for i in range(k)))
        rep.check(count_binary(k) == rec[k], lambda: "recurrence at %d" % k)
    rep.check(check_runital_bijection(2, 3, 3).equal, lambda: "runital bijection")
    return rep


SUITES = {
    "axioms": suite_axioms,
    "oracle": suite_oracle,
    "confluence": suite_confluence,
    "morphisms": suite_morphisms,
    "ordinals": suite_ordinals,
    "groups": suite_groups,
    "counts": suite_counts,
}


def run_suite(name, seed=0, size="small"):
    if name not in SUITES:
        raise UnknownStrategy("unknown suite %r (choose from %s)"
                              % (name, ", ".join(sorted(SUITES))))
    return SUITES[name](seed, size)
