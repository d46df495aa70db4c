import gc
import json
import os
import random
import subprocess
import sys
import threading

import pytest

from oracle_trees import build_tree, preorder, serialize
from nbase import elements
from nbase.elements import (
    GammaSequence,
    POINT,
    ShuffleMap,
    arity_m,
    check_associativity,
    check_phi_long,
    check_phi_short,
    compose,
    corolla,
    decompose_head,
    embed,
    graft_at_slot,
    make,
    normalize,
    shuffle,
    slots_F,
    total_G,
)
from nbase.errors import (
    InvalidSequence,
    InvalidShuffle,
    LevelMismatch,
    MatchViolation,
    NotComposable,
    OrderViolation,
    RangeViolation,
    TrustViolation,
    UnknownStrategy,
)
from nbase.grammar import element_from_json, element_to_json, parse_element
from nbase.randgen import random_gamma
from nbase.selftest import swap_normalize
from nbase.trees import from_tree, to_tree


def pe(text, **kw):
    return parse_element(text, **kw)


def run_python(code, *flags, env=None):
    """Stdout words of ``python *flags -c code`` on this checkout's package."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ if env is None else env, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


# one value of each trusted kind, none of them built anywhere else: a
# level-2 compose, a level-2 graft (splice), a level-3 graft whose sort
# builds partials, an embedding, and a normalize with an inversion at
# levels 2 and 3
def trusted_outputs():
    u3 = pe("[[411,2|1],[2|]|2]")
    raw3 = GammaSequence(3, (pe("[425,2|1]"), pe("[2,1|1]"), pe("[424,2|1]")), (2, 1))
    return [
        lambda: compose(pe("[413,2,2|1,2]"), 2, pe("[2,1|1]"))[0],
        lambda: graft_at_slot(pe("[419,2|3]"), 2, pe("[2,1|1]")).element,
        lambda: graft_at_slot(u3, 1, pe("[[411|]|]")).element,
        lambda: embed(corolla(421)),
        lambda: normalize(GammaSequence(2, (corolla(417), corolla(2), corolla(3)),
                                        (5, 1)))[0],
        lambda: normalize(raw3)[0],
    ]


class TestValidate:
    def test_level1_literal(self):
        x = pe("3", level=1)
        assert x.level == 1 and x.m == 3

    def test_four_node_wide_tree(self):
        x = pe("[3,2,4,3|1,4,5]")
        assert x.m == 4
        assert total_G(x) == corolla(9)

    def test_range_violation(self):
        with pytest.raises(RangeViolation):
            pe("[2,2|3]")

    def test_order_violation(self):
        with pytest.raises(OrderViolation):
            pe("[2,2,2|2,1]")

    def test_level_mismatch_in_factor(self):
        with pytest.raises(LevelMismatch):
            pe("[2,2|1]", level=3)

    def test_matching_violation_level3(self):
        # head [2|] has its single slot holding the 2-corolla; a factor with
        # a 3-leaf total cannot graft there
        with pytest.raises(MatchViolation):
            pe("[[2|],[3|]|1]")

    def test_level2_factor_of_wrong_level(self):
        with pytest.raises(InvalidSequence):
            GammaSequence(2, (corolla(2), pe("[2|]")), (1,)).validate()
        with pytest.raises(LevelMismatch):
            GammaSequence(2, (corolla(2), POINT), (1,)).validate()

    def test_zero_arity_rejected_by_default(self):
        with pytest.raises(RangeViolation):
            pe("0", level=1)


class TestFGm:
    def test_arity_m(self):
        assert arity_m(pe("5", level=1)) == 5
        assert arity_m(pe("[2,2|1]")) == 2
        assert arity_m(pe("[3,2,4,3|1,4,5]")) == 4
        assert arity_m(POINT) == 1

    def test_slots_level1_is_points(self):
        assert slots_F(pe("3", level=1)) == (POINT, POINT, POINT)

    def test_slots_level2(self):
        assert slots_F(pe("[2,2|1]")) == (corolla(2), corolla(2))

    def test_slots_level3(self):
        x = pe("[[2,2|1],[2|]|1]")
        assert slots_F(x) == (pe("[2,2|1]"), pe("[2|]"))

    def test_total_level1_is_point(self):
        assert total_G(pe("4", level=1)) == POINT

    def test_total_level2_arithmetic(self):
        assert total_G(pe("[3,2|1]")) == corolla(4)

    def test_point_has_no_total(self):
        with pytest.raises(LevelMismatch):
            total_G(POINT)


class TestCompose:
    def test_level1(self):
        z, sh = compose(corolla(4), 2, corolla(3))
        assert z == corolla(6)
        assert sh.phi == {1: 1, 3: 5, 4: 6}
        assert sh.psi == {1: 2, 2: 3, 3: 4}
        sh.check()

    def test_wide_tree_substitution(self):
        # node 3 of the 4-factor element subdivided by [3,2|2]
        x = pe("[3,2,4,3|1,4,5]")
        y = pe("[3,2|2]")
        z, sh = compose(x, 3, y)
        assert z == pe("[3,2,3,2,3|1,4,5,5]")
        assert sh.phi == {1: 1, 2: 2, 4: 5}
        assert sh.psi == {1: 3, 2: 4}

    def test_m_additivity_and_total(self):
        x = pe("[3,2,4,3|1,4,5]")
        y = pe("[3,2|2]")
        z, _sh = compose(x, 3, y)
        assert z.m == x.m + y.m - 1
        assert total_G(z) == total_G(x)

    def test_single_factor_unit(self):
        x = pe("[2,2|1]")
        z, sh = compose(x, 2, embed(corolla(2)))
        assert z == x
        assert sh.phi == {1: 1} and sh.psi == {1: 2}

    def test_not_composable(self):
        with pytest.raises(NotComposable):
            compose(pe("[2,2|1]"), 1, pe("[2,2|1]"))

    def test_slot_range(self):
        with pytest.raises(RangeViolation):
            compose(pe("[2|]"), 2, pe("[2|]"))

    def test_slot_interleaving(self):
        x, y = pe("[2,2|2]"), pe("[1,2|1]")
        z, sh = compose(x, 1, y)
        for j, pos in sh.phi.items():
            assert slots_F(z)[pos - 1] == slots_F(x)[j - 1]
        for k, pos in sh.psi.items():
            assert slots_F(z)[pos - 1] == slots_F(y)[k - 1]


class TestShuffle:
    def test_level1_closed_forms(self):
        sh = shuffle(corolla(4), 2, corolla(3))
        assert sh.phi == {1: 1, 3: 5, 4: 6}
        assert sh.psi == {1: 2, 2: 3, 3: 4}

    def test_single_factor_replacement(self):
        sh = shuffle(pe("[2,2|1]"), 1, pe("[2|]"))
        assert sh.phi == {2: 2} and sh.psi == {1: 1}

    def test_multi_factor_positions(self):
        # y with two factors replaces the head; the old second factor of x
        # ends up after both (computed with the tree oracle)
        sh = shuffle(pe("[2,2|2]"), 1, pe("[2,1|2]"))
        assert sh.phi == {2: 3}
        assert sh.psi == {1: 1, 2: 2}

    def test_shuffle_matches_compose(self):
        x, y = pe("[3,2,4,3|1,4,5]"), pe("[3,2|2]")
        assert shuffle(x, 3, y) == compose(x, 3, y)[1]


class TestNormalize:
    def test_swap_rule(self):
        g = pe("[2,2,2|2,1]", raw=True)
        e, perm = normalize(g)
        assert e == pe("[2,2,2|1,3]")
        assert perm == (1, 3, 2)

    def test_sorted_input_is_fixed(self):
        g = pe("[2,2,2|1,3]", raw=True)
        e, perm = normalize(g)
        assert e == pe("[2,2,2|1,3]")
        assert perm == (1, 2, 3)

    def test_strategies_agree(self):
        # the largest admissible first index is 2, so a descending triple
        # starts 2,...; every maximal swap strategy must agree
        for lit in ("[2,2,2,2|2,3,1]", "[2,2,2,2|2,1,1]", "[3,2,2,2|3,2,1]"):
            g = pe(lit, raw=True)
            left = normalize(g, "left")
            right = normalize(g, "right")
            rand = normalize(g, "random:17")
            assert left == right == rand

    def test_equal_indices_never_swapped(self):
        g = pe("[2,2,2|1,1]", raw=True)
        e, perm = normalize(g)
        assert e == pe("[2,2,2|1,1]")
        assert perm == (1, 2, 3)

    def test_invalid_sequence(self):
        with pytest.raises(InvalidSequence):
            GammaSequence(2, (corolla(2), corolla(2)), (5,)).validate()

    @pytest.mark.parametrize("k", [16, 32, 64])
    def test_long_sequences_match_tree_oracle(self, k):
        # the reversed fan grafts a 2-corolla on every prong of a k-corolla,
        # right to left, so every pair of indices starts out inverted
        fan = GammaSequence(2, (corolla(k),) + (corolla(2),) * k,
                            tuple(range(k, 0, -1)))
        rng = random.Random(k)
        for g in [fan] + [random_gamma(2, rng, steps=k) for _ in range(4)]:
            arities = [f.arity for f in g.factors]
            root = build_tree(arities, list(g.indices), "r")
            canon_arities, canon_indices = serialize(root)
            positions = [0] * len(arities)
            for pos, node in enumerate(preorder(root), start=1):
                positions[node["tag"][1] - 1] = pos
            want = (make(2, [corolla(a) for a in canon_arities], canon_indices),
                    tuple(positions))
            for strategy in ("left", "right", "random:%d" % rng.randrange(10 ** 6)):
                assert normalize(g, strategy) == want


class TestCanonicalOrder:
    """normalize against the swap rule, its refusals and its work bound."""

    STRATEGIES = ("left", "right", "random:5")

    def agree(self, g):
        want = normalize(g)
        for strategy in self.STRATEGIES:
            assert swap_normalize(g, strategy) == want, (g, strategy)
        return want

    def test_reference_on_criterion_4_sequences(self):
        # the 2000 sequences of criterion 4, drawn from the same stream
        for level, seed in ((2, 41), (3, 42)):
            rng = random.Random(seed)
            for _ in range(1000):
                self.agree(random_gamma(level, rng, steps=4))
                rng.randint(0, 10 ** 6)

    @pytest.mark.parametrize("level,top", [(2, 64), (3, 48), (4, 10)])
    def test_reference_on_long_sequences(self, level, top):
        rng = random.Random(level * 1000 + top)
        inverted = 0
        for k in sorted({2, 3, 5, 8, top // 4, top // 2, top}):
            for _ in range(3):
                g = random_gamma(level, rng, steps=k)
                inverted += any(a > b for a, b in zip(g.indices, g.indices[1:]))
                self.agree(g)
        assert inverted >= 10

    def test_reference_on_reversed_fans(self):
        for k in (8, 64):
            self.agree(GammaSequence(2, (corolla(k),) + (corolla(2),) * k,
                                     tuple(range(k, 0, -1))))
        head = pe("[%s|%s]" % (",".join(["2"] * 9), ",".join(map(str, range(1, 9)))))
        for piece in ("[2|]", "[2,1|1]"):
            self.agree(GammaSequence(3, (head,) + (pe(piece),) * 9, tuple(range(9, 0, -1))))

    def test_equal_factors_are_ordered_by_their_attachments(self):
        two = corolla(2)
        # 2 on prong 3 of the head, 3 on prong 1, 4 on the second prong of 3
        g = GammaSequence(2, (corolla(3), two, two, two), (3, 1, 2))
        assert self.agree(g) == (pe("[3,2,2,2|1,2,5]"), (1, 4, 2, 3))
        # [2|] keeps the slot it fills, so the raw indices say which slot each fills
        unit = pe("[2|]")
        g = GammaSequence(3, (pe("[2,2,2|1,2]"), unit, unit, unit), (3, 2, 1))
        assert self.agree(g) == (pe("[[2,2,2|1,2],[2|],[2|],[2|]|1,2,3]"), (1, 4, 3, 2))
        split = pe("[2,1|1]")
        g = GammaSequence(3, (pe("[2,2|1]"), split, unit, split, unit), (2, 2, 1, 1))
        assert self.agree(g) == (pe("[[2,2|1],[2,1|1],[2|],[2,1|1],[2|]|1,1,3,3]"),
                                 (1, 4, 5, 2, 3))

    def test_an_unknown_strategy_is_refused(self):
        two = corolla(2)
        for indices in ((2, 1), (1, 2)):  # also when there is nothing to sort
            g = GammaSequence(2, (two, two, two), indices)
            for strategy in ("foo", None, "randomly", ""):
                with pytest.raises(UnknownStrategy):
                    normalize(g, strategy)
                with pytest.raises(UnknownStrategy):
                    swap_normalize(g, strategy)
            assert len({normalize(g, s) for s in ("left", "right", "random", "random:9")}) == 1

    def test_validate_refuses_wrong_level_factors_and_non_int_indices(self):
        two = corolla(2)
        with pytest.raises(LevelMismatch):
            GammaSequence(3, (two, two), (1,)).validate()
        with pytest.raises(RangeViolation):
            GammaSequence(2, (two, two), (1.0,)).validate()
        with pytest.raises(RangeViolation):
            GammaSequence(2, (two, two), ("1",)).validate()
        g = GammaSequence(2, (two, two, two), (True, 1)).validate()
        assert g == (2, (two, two, two), (1, 1))
        assert [type(b) for b in g.indices] == [int, int]

    def test_level3_sort_composes_at_most_twice_per_graft(self, monkeypatch):
        # compose work from an empty memo: each pass over the k factors
        # makes k - 1 compositions, where the swap rule made one per swap
        calls = []
        work = elements._compose

        def counted(*args):
            calls.append(1)
            return work(*args)

        monkeypatch.setattr(elements, "_compose", counted)
        head = pe("[%s|%s]" % (",".join(["2"] * 25), ",".join(map(str, range(1, 25)))))
        rng = random.Random(3)
        sequences = [GammaSequence(3, (head,) + (pe("[2,1|1]"),) * 24, tuple(range(25, 1, -1)))]
        sequences += [random_gamma(3, rng, steps=k) for k in (4, 16, 48) for _ in range(5)]
        for g in sequences:
            monkeypatch.setattr(elements, "_compose_cache", {})
            calls.clear()
            normalize(g)
            assert len(calls) <= 2 * (len(g.factors) - 1), g


class TestShuffleMapCheck:
    @pytest.mark.parametrize("sh", [
        ShuffleMap(1, 2, 2, {}, {1: 1, 2: 2}),             # phi misses slot 2
        ShuffleMap(1, 2, 2, {2: 3}, {1: 2}),               # psi misses 2
        ShuffleMap(1, 2, 2, {2: 3}, {1: 2, 2: 1}),         # psi decreases
        ShuffleMap(2, 2, 2, {1: 3}, {1: 1, 2: 2}),         # phi moves slot 1
        ShuffleMap(1, 2, 2, {2: 2}, {1: 1, 2: 2}),         # images overlap
    ])
    def test_malformed_map_raises(self, sh):
        with pytest.raises(InvalidShuffle):
            sh.check()

    def test_check_survives_optimized_mode(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        code = ("from nbase.elements import ShuffleMap\n"
                "from nbase.errors import InvalidShuffle\n"
                "print(__debug__)\n"
                "try:\n"
                "    ShuffleMap(1, 2, 2, {2: 3}, {1: 2, 2: 1}).check()\n"
                "except InvalidShuffle:\n"
                "    print('raised')\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "raised"]


class TestAxiomChecks:
    def test_level1_associativity(self):
        w = check_associativity(corolla(5), 1, corolla(2), 3, corolla(4))
        assert w
        assert w.lhs == corolla(9)  # 5 + 2 + 4 - 2

    def test_level2_associativity(self):
        w = check_associativity(pe("[2,2|2]"), 1, pe("[1,2|1]"), 2, pe("[2|]"))
        assert w

    def test_level1_phi_axioms(self):
        x = corolla(6)
        assert check_phi_long(x, 1, corolla(2), 3, corolla(3), 5)
        assert check_phi_short(x, 1, corolla(2), 3, 5, corolla(4))

    def test_precondition(self):
        with pytest.raises(RangeViolation):
            check_associativity(corolla(5), 3, corolla(2), 1, corolla(4))


class TestHeadAndEmbed:
    def test_single_factor(self):
        hf = decompose_head(pe("[2|]"))
        assert hf.head == corolla(2) and hf.attachments == ()

    def test_single_graft(self):
        hf = decompose_head(pe("[1,1|1]"))
        assert hf.head == corolla(1)
        assert len(hf.attachments) == 1
        att = hf.attachments[0]
        assert att.slot == 1 and att.element == pe("[1|]")

    def test_two_attachment_tree(self):
        hf = decompose_head(pe("[3,2,4,3|1,4,5]"))
        assert hf.head == corolla(3)
        assert [a.slot for a in hf.attachments] == [1, 3]
        assert [f.arity for f in hf.attachments[1].element.factors] == [4, 3]

    def test_recompose_roundtrip(self):
        for lit in ("[3,2,4,3|1,4,5]", "[2,2,2|1,3]", "[1,1,1|1,1]",
                    "[3,2,3,2,3|1,4,5,5]"):
            assert decompose_head(pe(lit)).recompose() == pe(lit)

    def test_embed_levels(self):
        assert embed(corolla(3)) == pe("[3|]")
        assert embed(pe("[2,2|1]")) == pe("[[2,2|1]|]")
        assert total_G(embed(pe("[2,2|1]"))) == pe("[2,2|1]")
        with pytest.raises(LevelMismatch):
            embed(POINT)

    def test_positions_track_factors(self):
        z = pe("[3,2,3,2,3|1,4,5,5]")
        hf = decompose_head(z)
        for att in hf.attachments:
            for local, orig in enumerate(att.positions, start=1):
                assert att.element.factors[local - 1] == z.factors[orig - 1]


class TestGraft:
    def test_graft_matches_recompose(self):
        z = pe("[3,2,4,3|1,4,5]")
        hf = decompose_head(z)
        base = embed(hf.head)
        for att in sorted(hf.attachments, key=lambda a: -a.slot):
            g = graft_at_slot(base, att.slot, att.element)
            base = g.element
        assert base == z

    def test_graft_maps(self):
        base = embed(corolla(3))
        g = graft_at_slot(base, 2, pe("[2,1|2]"))
        assert g.element == pe("[3,2,1|2,3]")
        # the base factor stays first, grafted factors follow
        assert g.factor_phi == {1: 1}
        assert g.factor_psi == {1: 2, 2: 3}
        # slots 1 and 3 of the base survive around the graft
        assert g.slot_phi[1] == 1 and g.slot_phi[3] == 4

    def test_graft_content_mismatch(self):
        with pytest.raises(NotComposable):
            graft_at_slot(embed(pe("[2,2|1]")), 1, embed(pe("[3|]")))

    @pytest.mark.parametrize("level", [3, 4])
    def test_graft_and_head_contents_on_random_elements(self, level):
        from nbase.randgen import random_element, random_with_total
        rng = random.Random(level)
        for _ in range(25):
            u = random_element(level, rng, grafts=rng.randint(1, 3), max_arity=3)
            W = total_G(u)
            slot = rng.randint(1, W.m)
            v = random_with_total(
                level, random_with_total(level - 1, slots_F(W)[slot - 1], rng), rng)
            g = graft_at_slot(u, slot, v)
            z = g.element
            for src, fmap in ((u, g.factor_phi), (v, g.factor_psi)):
                for j, p in fmap.items():
                    assert z.factors[p - 1] is src.factors[j - 1]
            assert sorted(list(g.factor_phi.values()) + list(g.factor_psi.values())) \
                == list(range(1, z.m + 1))
            got = slots_F(total_G(z))
            for src, smap in ((W, g.slot_phi), (total_G(v), g.slot_psi)):
                for s, p in smap.items():
                    assert got[p - 1] == slots_F(src)[s - 1]
            assert sorted(g.slot_phi) == [s for s in range(1, W.m + 1) if s != slot]
            assert sorted(g.slot_psi) == list(range(1, total_G(v).m + 1))
            assert sorted(list(g.slot_phi.values()) + list(g.slot_psi.values())) \
                == list(range(1, len(got) + 1))

            hf = decompose_head(z)
            assert hf.recompose() is z
            assert [a.slot for a in hf.attachments] \
                == sorted({a.slot for a in hf.attachments})
            positions = [1]
            for att in hf.attachments:
                for local, orig in enumerate(att.positions, start=1):
                    assert att.element.factors[local - 1] is z.factors[orig - 1]
                positions.extend(att.positions)
            assert sorted(positions) == list(range(1, z.m + 1))

    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_factorize_recomposes(self, level):
        from nbase.randgen import factorize, random_element
        rng = random.Random(100 + level)
        for _ in range(30):
            w = random_element(level, rng, grafts=rng.randint(1, 3), max_arity=3)
            for _ in range(3):
                a, i, b = factorize(w, rng)
                assert compose(a, i, b)[0] is w


class TestInterning:
    def test_every_construction_path_returns_one_object(self):
        for lit in ("[3,2,4,3|1,4,5]", "[[2,2|1],[2|]|1]", "5"):
            x = pe(lit)
            assert pe(lit.replace(",", " , ")) is x
            blob = json.loads(json.dumps(element_to_json(x)))
            assert element_from_json(blob) is x
            if x.level >= 2:
                assert make(x.level, list(x.factors), list(x.indices)) is x
        x = pe("[3,2,4,3|1,4,5]")
        assert make(2, [corolla(a) for a in (3, 2, 4, 3)], [1, 4, 5]) is x
        assert from_tree(to_tree(x)) is x
        assert compose(x, 3, pe("[3,2|2]"))[0] is pe("[3,2,3,2,3|1,4,5,5]")

    def test_invalid_corollas_raise_on_every_call(self):
        zero = corolla(0, allow_zero=True)
        assert corolla(0, allow_zero=True) is zero
        for _ in range(2):
            with pytest.raises(RangeViolation):
                corolla(0)
            with pytest.raises(RangeViolation):
                corolla(1.0)
        assert corolla(1) is pe("1", level=1)

    @pytest.mark.parametrize("lit, error", [
        ("[2,2,2|2,1]", OrderViolation),
        ("[[2|],[3|]|1]", MatchViolation),
        ("[2,2|3]", RangeViolation),
    ])
    def test_invalid_literals_raise_on_every_call(self, lit, error):
        for _ in range(2):
            with pytest.raises(error):
                pe(lit)

    def test_non_integer_index_does_not_match_an_interned_value(self):
        x = pe("[2,2|1]")
        for _ in range(2):
            with pytest.raises(RangeViolation):
                make(2, x.factors, [1.0])
        assert make(2, x.factors, [1]) is x


    def test_concurrent_construction_yields_one_object(self):
        # literals no other test builds, so every thread starts on a miss
        lits = ["[%d,%d,2|1,%d]" % (200 + n, 2 + n % 3, 2 + n % 5)
                for n in range(150)]
        workers = 6
        results = [None] * workers
        barrier = threading.Barrier(workers)

        def build(w):
            barrier.wait(timeout=30)
            results[w] = [pe(lit) for lit in lits]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(w,))
                       for w in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for built in zip(*results):
            assert all(x is built[0] for x in built)

    def test_each_value_is_validated_once_per_process(self, monkeypatch):
        from nbase.ordinals import _phi_bound, cmp, encode
        from nbase.selftest import random_normal_form

        calls = []
        validate = elements._validate

        def counted(*args):
            calls.append(1)
            return validate(*args)

        monkeypatch.setattr(elements, "_validate", counted)
        rng = random.Random(7)
        notations = []
        while len(notations) < 100:
            n = rng.randint(2, 4)
            beta = random_normal_form(rng, n, depth=4)
            if not beta.is_zero() and cmp(beta, _phi_bound(n)) < 0:
                notations.append((beta, n))

        for _ in range(2):  # no result is kept between the passes
            calls.clear()
            for beta, n in notations:
                encode(beta, n)
            gc.collect()
        assert calls == []

    def test_a_bool_arity_is_refused_and_leaves_corolla_1_alone(self):
        # in a fresh process, where corolla 1 is not interned yet
        code = ("from nbase.elements import PlainElement, corolla\n"
                "from nbase.errors import RangeViolation\n"
                "for build in (lambda: PlainElement(1, arity=True),\n"
                "              lambda: corolla(True),\n"
                "              lambda: corolla(False, allow_zero=True)):\n"
                "    try:\n"
                "        build()\n"
                "    except RangeViolation:\n"
                "        print('refused')\n"
                "from nbase.grammar import element_to_json, format_element\n"
                "print(format_element(corolla(1)), element_to_json(corolla(1))['arity'])\n")
        assert run_python(code) == ["refused"] * 3 + ["1", "1"]

    def test_check_mode_refuses_a_wrong_trusted_total(self, monkeypatch):
        assert elements._CHECK  # conftest.py sets NBASE_CHECK=1
        outputs = trusted_outputs()
        trusted = elements._trusted
        monkeypatch.setattr(
            elements, "_trusted",
            lambda level, factors, indices, total: trusted(level, factors, indices, POINT))
        for build in outputs:
            with pytest.raises(TrustViolation):
                build()

    def test_check_mode_refuses_a_wrong_trusted_total_under_optimize(self):
        code = ("from nbase import elements\n"
                "from nbase.errors import TrustViolation\n"
                "from nbase.grammar import parse_element as pe\n"
                "x, y = pe('[423,2,2|1,2]'), pe('[2,1|1]')\n"
                "trusted = elements._trusted\n"
                "elements._trusted = lambda level, factors, indices, total: trusted(\n"
                "    level, factors, indices, elements.POINT)\n"
                "print(__debug__, elements._CHECK)\n"
                "try:\n"
                "    elements.compose(x, 2, y)\n"
                "except TrustViolation:\n"
                "    print('refused')\n")
        env = dict(os.environ, NBASE_CHECK="1")
        assert run_python(code, "-O", env=env) == ["False", "True", "refused"]

    def test_trusted_producers_refuse_what_validation_would(self):
        # these outputs skip validation, so their public inputs are checked
        two = corolla(2)
        with pytest.raises(RangeViolation):  # 1.0 == 1 would match a key
            normalize(GammaSequence(2, (corolla(427), two, two), (2.0, 1)))
        with pytest.raises(LevelMismatch):
            normalize(GammaSequence(3, (corolla(429), two, two), (2, 1)))
        with pytest.raises(LevelMismatch):
            embed(GammaSequence(2, (corolla(431),), ()))
        g = graft_at_slot(pe("[433,2|5]"), True, pe("[2|]")).element
        assert [type(b) for b in g.indices] == [int, int]
        assert g is pe("[433,2,2|1,6]")

    def test_trusted_outputs_are_not_validated_outside_check_mode(self, monkeypatch):
        outputs = trusted_outputs()
        calls = []
        validate = elements._validate

        def counted(*args):
            calls.append(args)
            return validate(*args)

        monkeypatch.setattr(elements, "_validate", counted)
        monkeypatch.setattr(elements, "_CHECK", False)
        before = len(elements._interned)
        built = [build() for build in outputs]
        assert calls == []
        assert len(elements._interned) >= before + len(built)  # all new
        for x in built:  # the totals they carry are the validated ones
            assert validate(x.level, x.factors, x.indices) is total_G(x)


def test_structural_equality_and_hash():
    a = pe("[2,2|1]")
    b = parse_element("[ 2 , 2 | 1 ]")
    assert a == b and hash(a) == hash(b)
    assert a != pe("[2,2|2]")


def test_records_keep_their_repr_equality_and_immutability():
    from nbase.elements import MAX_ARITY, Witness
    from nbase.errors import SizeBound

    x = pe("[3,2,4,3|1,4,5]")
    sh = compose(x, 3, pe("[3,2|2]"))[1]
    hf = decompose_head(x)
    g = graft_at_slot(pe("[2|]"), 1, pe("[2,1|1]"))
    assert repr(sh) == ("ShuffleMap(i=3, m_x=4, m_y=2, phi={1: 1, 2: 2, 4: 5}, "
                        "psi={1: 3, 2: 4})")
    assert repr(hf) == (
        "HeadForm(head=<1:3>, attachments=(Attachment(slot=1, element=<2:[2|]>, "
        "positions=(2,)), Attachment(slot=3, element=<2:[4,3|2]>, "
        "positions=(3, 4))))")
    assert repr(g) == ("GraftResult(element=<2:[2,2,1|1,1]>, factor_phi={1: 1}, "
                       "factor_psi={1: 2, 2: 3}, slot_phi={2: 3}, "
                       "slot_psi={1: 1, 2: 2})")
    raw = parse_element("[2,2,2|2,1]", raw=True)
    assert repr(raw) == ("GammaSequence(level=2, factors=(<1:2>, <1:2>, <1:2>), "
                         "indices=(2, 1))")
    assert sh == compose(x, 3, pe("[3,2|2]"))[1] and hf == decompose_head(x)
    assert hf != decompose_head(pe("[3,2,4,3|1,4,4]"))
    assert not Witness(False, x, x) and Witness(True, x, sh)
    assert repr(Witness(True, x, x)) == ("Witness(ok=True, lhs=<2:[3,2,4,3|1,4,5]>, "
                                         "rhs=<2:[3,2,4,3|1,4,5]>)")
    for record in (sh, hf, hf.attachments[0], g, raw, Witness(True, x, x)):
        with pytest.raises(AttributeError):
            setattr(record, type(record)._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = None
    # the checking constructor bounds the level-1 arity
    assert corolla(MAX_ARITY).arity == MAX_ARITY
    with pytest.raises(SizeBound):
        corolla(MAX_ARITY + 1)
