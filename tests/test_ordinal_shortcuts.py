"""The direct forms of ordinal arithmetic agree with the general ones.

``add(ONE, b)``, ``hier``, ``phi``'s subscript guard and the level-1 walk
each compute a value directly that the general left-to-right sum, the
omega power or a comparison with ``ONE`` also gives.  Each is checked here
against the general form, term for term, on seeded normal forms below
phi_n(0) for n = 1..4 and on zero, finite and infinite edge cases.
"""

import random

import pytest

from nbase.elements import corolla
from nbase.errors import OutOfRange
from nbase.ordinals import (
    ONE,
    ZERO,
    _sum,
    add,
    cmp,
    eval_phin,
    from_int,
    hier,
    omega_pow,
    parse_ordinal,
    phi,
    pred1,
)
from nbase.selftest import random_normal_form

EDGES = [ZERO, ONE, from_int(2), from_int(7)] + [parse_ordinal(text) for text in (
    "w", "w+1", "w+3", "w^(2)", "w^(w)+w+2", "phi(2,0)", "phi(2,0)+1",
    "phi(2,w)+phi(2,0)+w", "phi(3,1)+2", "phi(3,phi(2,0))+phi(2,1)")]


def notations():
    rng = random.Random(3901)
    seeded = [random_normal_form(rng, n, depth)
              for n in (1, 2, 3, 4) for depth in (1, 2, 3) for _ in range(25)]
    return EDGES + seeded


def test_one_plus_b_is_the_general_sum_term_for_term():
    for b in notations():
        direct, general = add(ONE, b), _sum([ONE, b])
        assert direct.terms == general.terms, b
        # a 1 before an infinite lead is absorbed, before a finite one it stays
        if b.terms and b.terms[0] is not None:
            assert direct.terms == b.terms
        else:
            assert direct.terms == (None,) + b.terms


def test_hier_is_the_omega_power_at_1_and_phi_above():
    for g in notations():
        if not g.terms:
            for k in (1, 2, 3):
                with pytest.raises(OutOfRange, match="attachment values are >= 1"):
                    hier(k, g)
            continue
        assert hier(1, g).terms == omega_pow(g).terms, g
        for k in (2, 3, 4):
            assert hier(k, g).terms == phi(from_int(k), pred1(g)).terms, (k, g)


def test_the_level_1_walk_is_the_sum_of_its_prongs():
    rng = random.Random(3902)
    values = [v for v in notations() if v.terms]
    for arity in (1, 2, 3, 5, 8):
        z = corolla(arity)
        assert eval_phin(z).terms == _sum([ONE] * arity).terms
        assert eval_phin(z, [ONE] * arity).terms == _sum([ONE] * arity).terms
        for _ in range(20):
            alphas = [rng.choice(values) if rng.random() < 0.6 else ONE
                      for _ in range(arity)]
            assert eval_phin(z, alphas).terms == _sum(alphas).terms, alphas


def test_phi_refuses_exactly_a_zero_subscript():
    for a in notations():
        for b in (ZERO, ONE, parse_ordinal("w")):
            if not a.terms:
                with pytest.raises(OutOfRange, match="phi subscript must be >= 1"):
                    phi(a, b)
            else:
                assert cmp(a, ONE) >= 0
                assert phi(a, b).terms
