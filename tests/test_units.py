import pytest

from nbase.elements import compose, corolla, slots_F, total_G
from nbase.enumeration import enumerate_elements
from nbase.errors import (
    LevelMismatch,
    NotComposable,
    NotImplementedLevel,
    RangeViolation,
)
from nbase.grammar import parse_element as pe
from nbase.units import (
    ERASER,
    RElement,
    ZERO,
    check_runital_bijection,
    parse_relement,
    r_compose,
    r_normalize,
    unit,
)


class TestUnitLaws:
    def test_right_unit_pointwise(self):
        x = pe("[2,2|1]")
        z, sh = compose(x, 2, unit(slots_F(x)[1]))
        assert z == x
        assert all(sh.phi[j] == j for j in sh.phi)

    def test_left_unit_pointwise(self):
        y = pe("[4|]")
        assert compose(unit(total_G(y)), 1, y)[0] == y

    def test_level1_unit_is_one(self):
        assert compose(corolla(3), 2, corolla(1))[0] == corolla(3)

    @pytest.mark.parametrize("level", [2, 3])
    def test_unit_laws_enumerated(self, level):
        for x in enumerate_elements(level, 2, 2):
            for k in range(1, x.m + 1):
                z, sh = compose(x, k, unit(slots_F(x)[k - 1]))
                assert z == x
                assert all(sh.phi[j] == j for j in sh.phi)
                assert sh.psi == {1: k}
            assert compose(unit(total_G(x)), 1, x)[0] == x


class TestRCompose:
    def test_eraser_deletes_lozenge(self):
        out = r_compose(pe("[2,1|2]"), 2, ERASER)
        assert out.plain == pe("[2|]")

    def test_eraser_wrong_arity(self):
        with pytest.raises(NotComposable):
            r_compose(pe("[2,2|1]"), 2, ERASER)

    def test_eraser_on_lone_lozenge(self):
        assert r_compose(pe("[1|]"), 1, ERASER).is_eraser

    def test_eraser_head(self):
        # deleting a unary head promotes the second factor
        out = r_compose(pe("[1,2|1]"), 1, ERASER)
        assert out.plain == pe("[2|]")

    def test_zero_caps_prong(self):
        out = r_compose(pe("[2|]"), 1, ZERO)
        assert total_G(out.plain) == corolla(1, allow_zero=True)

    def test_zero_cap_shifts_indices(self):
        # capping root prong 1 of [3,2|2] renumbers the graft to prong 1
        out = r_compose(pe("[3,2|2]"), 1, ZERO)
        assert out.plain == pe("[2,2|1]")

    def test_zero_level1(self):
        assert r_compose(corolla(2), 1, ZERO).plain == corolla(1)

    def test_zero_range(self):
        with pytest.raises(RangeViolation):
            r_compose(pe("[2|]"), 3, ZERO)

    def test_level3_not_implemented(self):
        with pytest.raises(NotImplementedLevel):
            r_compose(pe("[[2|]|]"), 1, ZERO)

    def test_plain_plain_over_extended_base(self):
        x = RElement.of(pe("[2|]"))
        y = RElement.of(pe("[2|]"))
        out = r_compose(x, 1, y)
        assert out.plain == pe("[2|]")

    def test_cap_then_erase_commutes_with_unrelated_compose(self):
        # erase factor 2 of x, then compose at the surviving slot; equals
        # composing first and erasing at the translated position
        x = pe("[2,1,2|1,2]")
        y = pe("[2|]")
        erased_first = r_compose(x, 2, ERASER).plain
        a = compose(erased_first, 2, y)[0]
        composed_first, sh = compose(x, 3, y)
        b = r_compose(composed_first, 2, ERASER).plain
        assert a == b


class TestNormalizeAndBijection:
    def test_plug_normalizes(self):
        raw = pe("[2,0|1]", allow_zero=True)
        assert r_normalize(raw).plain == pe("[1|]")

    def test_zero_embed_collapses(self):
        assert r_normalize(pe("[0|]", allow_zero=True)).is_zero

    def test_nested_plugs(self):
        raw = pe("[3,0,0|1,1]", allow_zero=True)
        assert r_normalize(raw).plain == pe("[1|]")

    def test_bijection_level1(self):
        rep = check_runital_bijection(1, max_arity=10)
        assert rep.equal and rep.plain_count == 10

    def test_bijection_level2(self):
        rep = check_runital_bijection(2, 3, 3)
        assert rep.equal
        assert rep.plain_count == rep.extended_count
        assert not rep.missing and not rep.extra

    def test_unnormalized_plug_detected(self):
        raw = pe("[2,0|2]", allow_zero=True)
        normal = r_normalize(raw).plain
        assert normal == pe("[1|]")


def test_parse_relement_reads_the_extended_literals():
    assert parse_relement(" !e ") is ERASER
    assert parse_relement("0") is ZERO
    assert parse_relement("0", level=1) is ZERO
    assert parse_relement("3", level=1) == RElement(plain=corolla(3))
    raw = parse_relement("[2,0|1]")
    assert isinstance(raw, RElement)
    assert r_normalize(raw).plain == pe("[1|]")
    with pytest.raises(LevelMismatch):
        parse_relement("0", level=2)
