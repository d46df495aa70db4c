"""One checked operation per case kind.

For each kind, ``run`` is the timed part: it takes the case's literals,
calls the program and returns the program's verdict and outputs.  ``check``
is untimed and decides whether those outputs are right, against
`reference` or arithmetic wherever an independent reference exists, and
otherwise against the algebraic law the case instantiates.
"""

import json
import os
import subprocess
import sys
from math import factorial

from nbase.elements import (
    GammaSequence,
    check_associativity,
    check_phi_long,
    check_phi_short,
    compose,
    normalize,
    shuffle,
    slots_F,
    total_G,
)
from nbase.errors import Overflow
from nbase.grammar import format_element, parse_element
from nbase.morphisms import apply_one, apply_two, complete_square, induced_two_on_composition
from nbase.ordinals import cmp as ord_cmp, encode, eval_phi2, eval_phin, format_ordinal, parse_ordinal
from nbase.presentations import symmetric_presentation, todd_coxeter, verify_symmetric_realization
from nbase.units import unit

import reference

# -- axioms34 -------------------------------------------------------------


def run_assoc(case):
    _r, _k, level, xs, i, ys, j, zs = case
    x, y, z = (parse_element(s, level=level) for s in (xs, ys, zs))
    w = check_associativity(x, i, y, j, z)
    return w, shuffle(x, i, y), x.m, y.m


def check_assoc(case, out):
    w, sh, mx, my = out
    i = case[4]
    return (w.ok is True and format_element(w.lhs) == format_element(w.rhs)
            and reference.shuffle_ok(sh.phi, sh.psi, i, mx, my))


def run_quad(case):
    _r, _k, level, xs, i, ys, j, zs, k, ts = case
    x, y, z, t = (parse_element(s, level=level) for s in (xs, ys, zs, ts))
    long_ = check_phi_long(x, i, y, j, z, k)
    short = check_phi_short(x, i, y, j, k, t)
    return long_, short, shuffle(x, i, y), x.m, y.m


def check_quad(case, out):
    long_, short, sh, mx, my = out
    return (long_.ok is True and short.ok is True and long_.lhs == long_.rhs
            and short.lhs == short.rhs
            and reference.shuffle_ok(sh.phi, sh.psi, case[4], mx, my))


def run_norm(case):
    _r, _k, level, raw, seed = case
    g = parse_element(raw, level=level, raw=True)
    left = normalize(g, "left")
    right = normalize(g, "right")
    rand = normalize(g, "random:%d" % seed)
    again = normalize(GammaSequence(level, left[0].factors, left[0].indices))
    return g, left, right, rand, again


def check_norm(case, out):
    g, left, right, rand, again = out
    (elem, perm), k = left, len(g.factors)
    if not (left == right == rand):
        return False
    if again != (elem, tuple(range(1, k + 1))):
        return False
    # a permutation of the factors, each raw factor landing on an equal one
    if sorted(perm) != list(range(1, k + 1)):
        return False
    canon = [format_element(f) for f in elem.factors]
    if any(canon[perm[t] - 1] != format_element(g.factors[t]) for t in range(k)):
        return False
    if any(a > b for a, b in zip(elem.indices, elem.indices[1:])):
        return False
    if case[2] == 2:
        want, positions = reference.normalize2(case[3])
        return format_element(elem) == want and list(perm) == positions
    return True


# -- level2_calculus ------------------------------------------------------


def run_square(case):
    _r, _k, xs, perms, sigma = case
    x = parse_element(xs, level=2)
    f = apply_one(x, perms)
    g = apply_two(x, sigma)
    sq = complete_square(f, g)
    return sq, sq.commutes()


def check_square(case, out):
    sq, commutes = out
    xs, perms, sigma = case[2], case[3], case[4]
    arities, indices = reference.split2(xs)
    corner = reference.lit2([arities[s - 1] for s in sigma], indices)
    transported = [perms[s - 1] for s in sigma]
    opposite = reference.apply_one2(corner, transported)[0]
    return (commutes is True and format_element(sq.opposite) == opposite
            and format_element(sq.left.target) == reference.apply_one2(xs, perms)[0]
            and format_element(sq.top.target) == corner)


def run_equiv(case):
    _r, _k, xs, i, ys, sf, sg = case
    x = parse_element(xs, level=2)
    y = parse_element(ys, level=2)
    f = apply_two(x, sf)
    g = apply_two(y, sg)
    h = induced_two_on_composition(x, i, y, f, g)
    return h, f.transport(i)


def check_equiv(case, out):
    h, i2 = out
    xs, i, ys = case[2], case[3], case[4]
    if i2 != case[5].index(i) + 1:
        return False
    return (format_element(h.source) == reference.compose2(xs, i, ys)[0]
            and format_element(h.target) == reference.compose2(xs, i2, ys)[0]
            and sorted(h.sigma) == list(range(1, len(h.sigma) + 1)))


def run_pair(case):
    _r, _k, xs, i, ys = case
    return compose(parse_element(xs, level=2), i, parse_element(ys, level=2))


def check_pair(case, out):
    result, sh = out
    want, phi, psi = reference.compose2(case[2], case[3], case[4])
    return format_element(result) == want and sh.phi == phi and sh.psi == psi


def run_unit(case):
    _r, _k, xs, k = case
    x = parse_element(xs, level=2)
    if k == 0:
        return x, compose(unit(total_G(x)), 1, x)
    return x, compose(x, k, unit(slots_F(x)[k - 1]))


def check_unit(case, out):
    x, (z, sh) = out
    k, m = case[3], len(reference.split2(case[2])[0])
    if format_element(z) != case[2]:
        return False
    if k == 0:
        return sh.phi == {} and sh.psi == {t: t for t in range(1, m + 1)}
    return (sh.psi == {1: k} and all(sh.phi[j] == j for j in sh.phi)
            and reference.shuffle_ok(sh.phi, sh.psi, k, m, 1))


# -- ordinal_roundtrip ----------------------------------------------------


def run_ord(case):
    _r, _k, n, text = case
    beta = parse_ordinal(text)
    z = encode(beta, n)
    back = eval_phin(z)
    same = ord_cmp(back, beta) == 0
    if n == 2:
        return back, same, eval_phi2(z)
    return back, same, None


def check_ord(case, out):
    back, same, back2 = out
    if same is not True or format_ordinal(back) != case[3]:
        return False
    return back2 is None or format_ordinal(back2) == case[3]


# -- coset_enum -----------------------------------------------------------


def run_tc(case):
    return todd_coxeter(symmetric_presentation(case[2]))


def check_tc(case, out):
    return out.complete and out.order == factorial(case[2]) == out.live


def run_verify(case):
    return verify_symmetric_realization(parse_element(case[2], level=2))


def check_verify(case, out):
    n = len(reference.split2(case[2])[0])
    return (out.nodes == n and out.edges == n - 1 and out.relators_hold is True
            and out.generated_order == out.enumerated_order == factorial(n)
            and out.isomorphic is True)


def expected_failure(case, err):
    """The one failure the benchmark keeps in on purpose.

    Verifying an 8-node binary tree raises `Overflow` at the default coset
    cap (ROADMAP item 4).  Any other exception, on any case, is a wrong
    result.
    """
    return (case[1] == "verify" and isinstance(err, Overflow)
            and len(reference.split2(case[2])[0]) == 8)


# -- cli_cold -------------------------------------------------------------

CLI_ENV = dict(os.environ, PYTHONPATH=os.path.join(reference.ROOT, "src"))
CLI_PREFIX = [sys.executable, "-m", "nbase.cli"]


def run_cmd(case):
    proc = subprocess.run(CLI_PREFIX + case[2], env=CLI_ENV, cwd=reference.ROOT,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout


def check_cmd(case, out):
    code, stdout = out
    want = case[3]
    if code != 0:
        return False
    if "json" in want:
        try:
            return json.loads(stdout) == want["json"]
        except ValueError:
            return False
    return stdout.rstrip("\n") == want["text"]


OPS = {
    "assoc": (run_assoc, check_assoc),
    "quad": (run_quad, check_quad),
    "norm": (run_norm, check_norm),
    "square": (run_square, check_square),
    "equiv": (run_equiv, check_equiv),
    "pair": (run_pair, check_pair),
    "unit": (run_unit, check_unit),
    "ord": (run_ord, check_ord),
    "tc": (run_tc, check_tc),
    "verify": (run_verify, check_verify),
    "cmd": (run_cmd, check_cmd),
}
