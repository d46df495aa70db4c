import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbase.errors import NotImplementedLevel, OutOfRange, ParseError, SizeBound
from nbase.grammar import parse_element as pe
from nbase.ordinals import (
    MAX_NESTING,
    ONE,
    ZERO,
    add,
    cmp,
    encode,
    eval_phi2,
    eval_phin,
    format_ordinal,
    from_int,
    image_sweep,
    omega_pow,
    parse_ordinal,
    phi,
    pred1,
    to_int,
)

po = parse_ordinal


# a bounded-depth strategy for normal forms
def _ord_strategy(depth):
    if depth == 0:
        return st.integers(0, 5).map(from_int)
    sub = _ord_strategy(depth - 1)
    term = st.builds(
        lambda a, b: phi(add(ONE, a), b),
        st.integers(0, 2).map(from_int), sub)
    return st.one_of(
        st.integers(0, 5).map(from_int),
        st.builds(add, sub, sub),
        term,
        st.builds(add, sub, term),
    )


ords = _ord_strategy(3)


class TestCmpAdd:
    def test_one_absorbs_before_omega(self):
        assert cmp(add(ONE, po("w")), po("w")) == 0

    def test_omega_plus_one(self):
        assert format_ordinal(add(po("w"), ONE)) == "w+1"

    def test_omega_gt_finite(self):
        assert cmp(po("w"), from_int(3)) == 1

    def test_fixed_point_collapse(self):
        assert cmp(phi(ONE, po("phi(2,0)")), po("phi(2,0)")) == 0

    def test_nf_addition(self):
        s = add(po("w^(2)+w"), po("w^(2)"))
        assert format_ordinal(s) == "w^(2)+w^(2)"

    @given(ords, ords)
    @settings(max_examples=200, deadline=None)
    def test_cmp_antisymmetric(self, a, b):
        assert cmp(a, b) == -cmp(b, a)

    @given(ords, ords, ords)
    @settings(max_examples=200, deadline=None)
    def test_cmp_transitive(self, a, b, c):
        xs = sorted([a, b, c], key=functools.cmp_to_key(cmp))
        assert cmp(xs[0], xs[1]) <= 0 <= cmp(xs[2], xs[1])

    @given(ords, ords, ords)
    @settings(max_examples=200, deadline=None)
    def test_add_associative(self, a, b, c):
        assert cmp(add(add(a, b), c), add(a, add(b, c))) == 0

    @given(ords)
    @settings(max_examples=100, deadline=None)
    def test_add_zero(self, a):
        assert cmp(add(a, ZERO), a) == 0
        assert cmp(add(ZERO, a), a) == 0

    @given(ords, ords)
    @settings(max_examples=200, deadline=None)
    def test_add_monotone_right(self, a, b):
        assert cmp(add(a, b), a) >= 0


class TestPhi:
    def test_phi_1_0_is_omega(self):
        assert format_ordinal(phi(ONE, ZERO)) == "w"

    def test_absorption(self):
        eps = po("phi(2,0)")
        assert cmp(phi(ONE, eps), eps) == 0
        assert phi(ONE, eps) == eps  # constructor-level

    def test_phi_2_0_is_opaque(self):
        assert format_ordinal(phi(from_int(2), ZERO)) == "phi(2,0)"

    def test_subscript_guard(self):
        with pytest.raises(OutOfRange):
            phi(ZERO, ONE)

    def test_pred1(self):
        assert to_int(pred1(from_int(4))) == 3
        w = po("w")
        assert cmp(pred1(w), w) == 0
        with pytest.raises(OutOfRange):
            pred1(ZERO)

    def test_omega_pow(self):
        assert cmp(omega_pow(ZERO), ONE) == 0
        assert format_ordinal(omega_pow(ONE)) == "w"
        assert format_ordinal(omega_pow(from_int(2))) == "w^(2)"
        assert format_ordinal(omega_pow(po("w"))) == "w^(w)"


class TestGrammar:
    @given(ords)
    @settings(max_examples=300, deadline=None)
    def test_roundtrip(self, a):
        assert cmp(parse_ordinal(format_ordinal(a)), a) == 0

    def test_zero(self):
        assert parse_ordinal("0").is_zero()
        assert format_ordinal(ZERO) == "0"

    def test_sugar(self):
        assert cmp(po("w"), phi(ONE, ZERO)) == 0
        assert cmp(po("w^(1)"), po("w")) == 0
        assert cmp(po("w^(0)"), ONE) == 0

    def test_parse_error(self):
        for bad in ("", "+1", "phi(1)", "w^", "5x"):
            with pytest.raises(ParseError):
                parse_ordinal(bad)

    @pytest.mark.parametrize("opener", ["w^(", "phi(1,"])
    def test_nesting_bound_counts_open_frames(self, opener):
        deepest = opener * MAX_NESTING + "1" + ")" * MAX_NESTING
        value = parse_ordinal(deepest)
        assert cmp(parse_ordinal(format_ordinal(value)), value) == 0
        if opener == "w^(":
            assert format_ordinal(value) == "w^(" * 255 + "w" + ")" * 255
        # one frame more, or thousands, is refused without recursing
        for depth in (MAX_NESTING + 1, 10_000):
            with pytest.raises(SizeBound):
                parse_ordinal(opener * depth + "1" + ")" * depth)


class TestEvalPhi2:
    def test_corolla_identity(self):
        for n in range(1, 7):
            assert to_int(eval_phi2(pe("[%d|]" % n))) == n

    def test_omega(self):
        assert format_ordinal(eval_phi2(pe("[1,1|1]"))) == "w"

    def test_omega_tower(self):
        assert format_ordinal(eval_phi2(pe("[1,1,1|1,1]"))) == "w^(w)"

    def test_mixed(self):
        assert format_ordinal(eval_phi2(pe("[2,2,1|1,3]"))) == "w^(2)+w"

    def test_level_guard(self):
        with pytest.raises(NotImplementedLevel):
            eval_phi2(pe("3", level=1))


class TestEvalPhin:
    def test_level1_sums_arguments(self):
        value = eval_phin(pe("3", level=1), [po("w"), ONE, from_int(2)])
        assert format_ordinal(value) == "w+3"

    def test_level1_default(self):
        assert to_int(eval_phin(pe("4", level=1))) == 4

    def test_level2_matches_phi2(self):
        from nbase.enumeration import enumerate_elements
        for e in enumerate_elements(2, 3, 3):
            assert cmp(eval_phin(e), eval_phi2(e)) == 0

    def test_level2_corolla(self):
        assert to_int(eval_phin(pe("[4|]"))) == 4

    def test_level3_single_factor(self):
        assert to_int(eval_phin(pe("[[2|]|]"))) == 2

    def test_level3_reaches_epsilon(self):
        z = encode(po("phi(2,0)"), 3)
        assert cmp(eval_phin(z), po("phi(2,0)")) == 0

    def test_slot_argument_on_head(self):
        # a non-default argument replaces its factor's head contribution
        assert cmp(eval_phin(pe("[2|]"), [po("w")]), po("w")) == 0

    def test_slot_argument_on_attachment(self):
        # riding factor 2 of [1,1|1], the argument surfaces inside the
        # omega power of that attachment
        got = eval_phin(pe("[1,1|1]"), [ONE, po("w")])
        assert cmp(got, po("w^(w)")) == 0


class TestEncode:
    def test_level1(self):
        assert encode(from_int(5), 1) == pe("5", level=1)

    def test_omega_level2(self):
        assert encode(po("w"), 2) == pe("[1,1|1]")

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            encode(po("w"), 1)
        with pytest.raises(OutOfRange):
            encode(po("phi(2,0)"), 2)
        with pytest.raises(OutOfRange):
            encode(ZERO, 2)

    def test_level_bound(self):
        with pytest.raises(NotImplementedLevel):
            encode(ONE, 5)

    def test_epsilon_plus_omega_level3(self):
        beta = po("phi(2,0)+w")
        z = encode(beta, 3)
        assert z.level == 3
        assert cmp(eval_phin(z), beta) == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_roundtrip(self, n):
        from nbase.selftest import random_normal_form
        from nbase.ordinals import _phi_bound
        rng = random.Random(42 + n)
        done = 0
        while done < 120:
            beta = random_normal_form(rng, n, depth=4 if n > 1 else 0)
            if beta.is_zero() or cmp(beta, _phi_bound(n)) >= 0:
                continue
            assert cmp(eval_phin(encode(beta, n)), beta) == 0
            done += 1


class TestImageSweep:
    def test_level1(self):
        assert image_sweep(1, 1, 6) == {from_int(k) for k in range(1, 7)}

    def test_level2_contains_and_bounded(self):
        # finite values come from all-free heads, so the value 4 needs an
        # arity-4 corolla; sweep with arity bound 4
        values = image_sweep(2, 4, 4)
        for expect in ("1", "2", "3", "4", "w", "w+1", "w+2",
                       "w+w", "w^(2)", "w^(2)+w", "w^(w)"):
            assert po(expect) in values

    def test_no_epsilon(self):
        values = image_sweep(2, 4, 4)
        bound = po("phi(2,0)")
        for v in values:
            assert cmp(v, bound) < 0


def test_equality_and_hash_of_a_deep_value():
    # the flat 1500-node chain evaluates to a value nested 1500 deep; the
    # dataclass's generated == and hash recursed once per level
    chain = pe("[%s|%s]" % (",".join(["1"] * 1500), ",".join(["1"] * 1499)))
    v, w = eval_phin(chain), eval_phin(chain)
    assert isinstance(hash(v), int) and hash(v) == hash(w)
    assert v == w and not v != w
    assert len({v, w}) == 1
    assert v != ONE and ONE != v and v != format_ordinal(v)
