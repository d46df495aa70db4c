"""Seeded inputs for every workload, as literals.

Inputs are generated here, on the benchmark side, and handed to the timed
process as element and ordinal text, so the program's process-global
caches (the compose memo, the enumeration cache) start empty there, as in
a user's fresh process.  Generation uses nbase itself only to build valid
random shapes; the expected answers come from `reference` or from
arithmetic wherever an independent reference exists.

Every case is a JSON list ``[round, kind, *args]``.  A round holds a fixed
mix of case kinds in a seeded order; cost drivers (graft counts, sequence
lengths, node counts, levels) cycle through their whole range in seeded
blocks.  So every run sees the same mix, which keeps runs of different
seeds comparable, and the timed process stops only at a round boundary.
"""

import bisect
import itertools
import random
from math import comb, factorial

from nbase.enumeration import enumerate_elements
from nbase.grammar import format_element
from nbase.morphisms import apply_two
from nbase.ordinals import _phi_bound, cmp as ord_cmp, encode, format_ordinal
from nbase.randgen import random_composable_triple, random_gamma, random_phi_quad
from nbase.selftest import random_normal_form

import reference

# Rounds generated per second of requested run time.  The timed process
# stops early, with a note, if a much faster host runs out of rounds.
ROUNDS_PER_SECOND = {
    "axioms34": 50,
    "level2_calculus": 1800,
    "ordinal_roundtrip": 700,
    "coset_enum": 1,
    "cli_cold": 1,
}


class Strata:
    """Values in seeded blocks, each block a shuffle of all of them (for a
    pool, a seeded order over it, reshuffled when used up)."""

    def __init__(self, rng, values):
        self.rng = rng
        self.values = list(values)
        self.block = []

    def next(self):
        if not self.block:
            self.block = self.values[:]
            self.rng.shuffle(self.block)
        return self.block.pop()


def rounds_for(workload, seconds):
    return max(2, int(ROUNDS_PER_SECOND[workload] * seconds) + 1)


def generate(workload, seed, rounds):
    """The first `rounds` rounds of the workload's cases for this seed."""
    rng = random.Random("%s/%d" % (workload, seed))
    make = {"axioms34": _axioms34, "level2_calculus": _level2_calculus,
            "ordinal_roundtrip": _ordinal_roundtrip, "coset_enum": _coset_enum,
            "cli_cold": _cli_cold}[workload]
    out = []
    for r, batch in enumerate(itertools.islice(make(rng), rounds)):
        rng.shuffle(batch)
        out.extend([r] + case for case in batch)
    return out


# -- axioms34 -------------------------------------------------------------

def _axioms34(rng):
    f = format_element
    grafts = {key: Strata(rng, (2, 3, 4)) for key in ("t3", "t4", "q3", "q4")}
    steps = {2: Strata(rng, range(4, 49)), 3: Strata(rng, range(4, 49))}
    while True:
        batch = []
        for level in (3, 4):
            x, i, y, j, z = random_composable_triple(
                level, rng, grafts=grafts["t%d" % level].next(), max_arity=3)
            batch.append(["assoc", level, f(x), i, f(y), j, f(z)])
            x, i, y, j, z, k, t = random_phi_quad(
                level, rng, grafts=grafts["q%d" % level].next(), max_arity=3)
            batch.append(["quad", level, f(x), i, f(y), j, f(z), k, f(t)])
        for level in (2, 3):
            g = random_gamma(level, rng, steps=steps[level].next())
            batch.append(["norm", level, f(g), rng.randrange(10 ** 6)])
        yield batch


# -- level2_calculus ------------------------------------------------------

def _composable_pairs(total_nodes, max_arity):
    """Every (x, i, y) at level 2 whose composite has <= total_nodes nodes."""
    by_nodes = {}
    for e in enumerate_elements(2, total_nodes - 1, max_arity):
        by_nodes.setdefault(e.m, []).append(e)
    out = []
    for kx in range(1, total_nodes):
        for x in by_nodes.get(kx, ()):
            for i in range(1, x.m + 1):
                want = x.factors[i - 1].arity
                for ky in range(1, total_nodes - kx + 1):
                    for y in by_nodes.get(ky, ()):
                        if sum(f.arity for f in y.factors) - (y.m - 1) == want:
                            out.append((x, i, y))
    return out


def _automorphisms(x):
    out = []
    for sigma in itertools.permutations(range(1, x.m + 1)):
        mor = apply_two(x, sigma)
        if mor is not None and mor.target == x:
            out.append(list(sigma))
    return out


def _square_sampler(rng, objects):
    """Uniform draws over every (x, one-morphism, two-morphism) on the objects."""
    table = []
    total = 0
    for x in objects:
        pools = [list(itertools.permutations(range(1, f.arity + 1))) for f in x.factors]
        twos = [list(s) for s in itertools.permutations(range(1, x.m + 1))
                if apply_two(x, s) is not None]
        ones = 1
        for p in pools:
            ones *= len(p)
        table.append((total, format_element(x), pools, twos, ones))
        total += ones * len(twos)
    starts = [row[0] for row in table]

    def next_case():
        n = rng.randrange(total)
        start, lit, pools, twos, ones = table[bisect.bisect_right(starts, n) - 1]
        n -= start
        sigma = twos[n // ones]
        n %= ones
        perms = []
        for p in pools:
            perms.append(list(p[n % len(p)]))
            n //= len(p)
        return ["square", lit, perms, sigma]
    return next_case


def _level2_calculus(rng):
    """Criteria 1 and 10-12 on the exhaustive level-2 pool.

    Squares: every one- and two-morphism pair on trees of <= 4 nodes and
    arity <= 3 (4.7 M squares, sampled uniformly).  Equivariance: every
    automorphism pair on composable pairs with <= 5 nodes, arity <= 3.
    Composition: every composable pair with <= 6 nodes, arity <= 3.
    Unit laws: both sides, on trees of <= 5 nodes, arity <= 3.
    """
    f = format_element
    squares = _square_sampler(rng, enumerate_elements(2, 4, 3))
    equiv_pool = []
    autos = {}
    for x, i, y in _composable_pairs(5, 3):
        for e in (x, y):
            if e not in autos:
                autos[e] = _automorphisms(e)
        for sf in autos[x]:
            for sg in autos[y]:
                equiv_pool.append((x, i, y, sf, sg))
    equiv = Strata(rng, equiv_pool)
    pairs = Strata(rng, _composable_pairs(6, 3))
    units = Strata(rng, [(x, k) for x in enumerate_elements(2, 5, 3)
                         for k in range(0, x.m + 1)])
    while True:
        square = squares()
        x, i, y, sf, sg = equiv.next()
        px, pi, py = pairs.next()
        ux, k = units.next()
        yield [square, ["equiv", f(x), i, f(y), sf, sg],
               ["pair", f(px), pi, f(py)], ["unit", f(ux), k]]


# -- ordinal_roundtrip ----------------------------------------------------

def _random_ordinal(rng, n, depth):
    """A random notation with 0 < beta < phi_n(0), as in criterion 8."""
    while True:
        beta = random_normal_form(rng, n, depth)
        if not beta.is_zero() and ord_cmp(beta, _phi_bound(n)) < 0:
            return beta


def _ordinal_roundtrip(rng):
    while True:
        yield [["ord", n, format_ordinal(_random_ordinal(rng, n, 5))]
               for n in (2, 3, 4)]


# -- coset_enum -----------------------------------------------------------

def binary_shapes(k):
    """Literals of every level-2 element with k factors of arity 2."""
    out = []

    def extend(indices, prongs, last):
        if len(indices) == k - 1:
            out.append(reference.lit2([2] * k, indices))
            return
        for idx in range(last, prongs + 1):
            extend(indices + [idx], prongs + 1, idx)

    extend([], 2, 1)
    return out


# Todd-Coxeter runs per round for each n.  All n = 4..7 are covered; the
# weights put the median inside the S6 runs and the 85th percentile inside
# the S7 runs, away from class boundaries, so both are order statistics of
# many like operations rather than of the few realization checks.
TC_PER_ROUND = {4: 2, 5: 2, 6: 8, 7: 3}


def _coset_enum(rng):
    """Todd-Coxeter on S_n (TC_PER_ROUND), and one realization check per
    node count 4..8, the binary tree drawn uniformly for its size.

    The 8-node checks dominate the time, so each round holds exactly one of
    each node count and a run stops only between rounds.
    """
    shapes = {k: binary_shapes(k) for k in range(4, 9)}
    while True:
        batch = [["tc", n] for n, times in TC_PER_ROUND.items() for _ in range(times)]
        batch.extend(["verify", rng.choice(shapes[k])] for k in range(4, 9))
        yield batch


# -- cli_cold -------------------------------------------------------------

def _text(argv, text):
    return ["cmd", argv, {"text": text}]


def _json(argv, value):
    return ["cmd", argv, {"json": value}]


def _cli_cold(rng):
    """One of each command the README shows, seeded arguments.

    Every third round uses the README's own instances for the commands it
    documents a value for (6, 132, 120, w, EQ).
    """
    pairs = [(format_element(x), i, format_element(y))
             for x, i, y in _composable_pairs(5, 3)]
    trees = [format_element(e) for e in enumerate_elements(2, 5, 3) if e.m >= 2]
    r = 0
    while True:
        readme = r % 3 == 0
        r += 1
        batch = []
        if readme:
            batch.append(_text(["compose", "--level", "1", "4", "2", "3"], "6"))
            batch.append(_text(["enum", "--level", "2", "--binary", "6"], "132"))
            batch.append(_text(["group", "order", "--sym", "5"], "120"))
            batch.append(_text(["ord", "eval", "--level", "2", "[1,1|1]"], "w"))
            batch.append(_text(["ord", "cmp", "1+w", "w"], "EQ"))
        else:
            a, b = rng.randint(1, 9), rng.randint(1, 9)
            batch.append(_text(["compose", "--level", "1", str(a),
                                str(rng.randint(1, a)), str(b)], str(a + b - 1)))
            k = rng.randint(2, 9)
            batch.append(_text(["enum", "--level", "2", "--binary", str(k)],
                               str(comb(2 * k, k) // (k + 1))))
            n = rng.randint(3, 6)
            batch.append(_text(["group", "order", "--sym", str(n)], str(factorial(n))))
            beta = _random_ordinal(rng, 2, 3)
            batch.append(_text(["ord", "eval", "--level", "2",
                                format_element(encode(beta, 2))], format_ordinal(beta)))
            batch.append(_cmp_case(rng))

        x, i, y = rng.choice(pairs)
        lit, phi, psi = reference.compose2(x, i, y)
        if rng.random() < 0.5:
            batch.append(_json(["compose", "--json", x, str(i), y], {
                "result": reference.json2(*reference.split2(lit)),
                "shuffle": {"i": i, "phi": {str(k): v for k, v in phi.items()},
                            "psi": {str(k): v for k, v in psi.items()}}}))
        else:
            batch.append(_text(["compose", x, str(i), y], lit))

        x, i, y = rng.choice(pairs)
        _lit, phi, psi = reference.compose2(x, i, y)
        batch.append(_text(["shuffle", x, str(i), y], "\n".join([
            "phi " + " ".join("%d->%d" % kv for kv in sorted(phi.items())),
            "psi " + " ".join("%d->%d" % kv for kv in sorted(psi.items()))])))

        g = random_gamma(2, rng, steps=rng.randint(2, 8))
        raw = reference.lit2([e.arity for e in g.factors], g.indices)
        canon, positions = reference.normalize2(raw)
        if rng.random() < 0.5:
            batch.append(_json(["normalize", "--json", raw], {
                "element": reference.json2(*reference.split2(canon)),
                "positions": positions}))
        else:
            batch.append(_text(["normalize", raw], canon + "\npositions " + " ".join(
                "%d->%d" % (t, p) for t, p in enumerate(positions, start=1))))

        x = rng.choice(trees)
        arities, _ = reference.split2(x)
        total = str(reference.total2(x))
        if rng.random() < 0.5:
            batch.append(_json(["fg", "--json", x], {
                "m": len(arities), "F": [str(a) for a in arities], "G": total}))
        else:
            batch.append(_text(["fg", x], "m %d\nF %s\nG %s" % (
                len(arities), " ".join(map(str, arities)), total)))

        x = rng.choice(trees)
        head, atts = reference.head2(x)
        if rng.random() < 0.5:
            batch.append(_json(["head", "--json", x], {
                "head": str(head),
                "attachments": [{"slot": p, "element": e} for p, e in atts]}))
        else:
            batch.append(_text(["head", x], "\n".join(
                ["head %d" % head] + ["slot %d %s" % a for a in atts])))

        n = rng.randint(2, 4)
        beta = _random_ordinal(rng, n, 3)
        batch.append(_text(["ord", "encode", "--level", str(n), format_ordinal(beta)],
                           format_element(encode(beta, n))))

        x = rng.choice(trees)
        batch.append(_text(["render", x, "--format", "dot"], reference.dot2(x)))

        x = rng.choice(trees)
        perms = [rng.sample(range(1, a + 1), a) for a in reference.split2(x)[0]]
        target, leaf_perm, relabel = reference.apply_one2(x, perms)
        batch.append(_json(["mor", "apply1", x, '{"node_perms": %s}' % perms], {
            "target": target, "leaf_perm": leaf_perm, "node_relabel": relabel}))
        yield batch


def _cmp_case(rng):
    """An `ord cmp` whose answer follows from ordinal arithmetic alone.

    For an infinite beta, k + beta = beta, and beta < beta + 1.
    """
    beta = format_ordinal(_random_ordinal(rng, 3, 3))
    while beta[0].isdigit():
        beta = format_ordinal(_random_ordinal(rng, 3, 3))
    k = rng.randint(1, 9)
    return rng.choice([
        _text(["ord", "cmp", "%d+%s" % (k, beta), beta], "EQ"),
        _text(["ord", "cmp", beta, beta + "+1"], "LT"),
        _text(["ord", "cmp", beta + "+%d" % k, beta], "GT"),
    ])
