import random
from itertools import permutations, product

import pytest

from nbase.elements import compose, total_G
from nbase.enumeration import enumerate_elements
from nbase.errors import DegreeMismatch, SizeBound
from nbase.grammar import format_element, parse_element as pe
from nbase.morphisms import (
    apply_one,
    apply_two,
    complete_square,
    enumerate_morphisms,
    identity_one,
    identity_two,
    induced_two_on_composition,
    two_morphisms_between,
)
from oracle_trees import oracle_apply_one, random_tree


def _literal(arities, indices):
    return "[%s|%s]" % (",".join(map(str, arities)), ",".join(map(str, indices)))


def _check_against_oracle(x, perms):
    f = apply_one(x, perms)
    arities = [g.arity for g in x.factors]
    t_arities, t_indices, leaf_perm, node_relabel = oracle_apply_one(
        arities, list(x.indices), perms)
    assert format_element(f.target) == _literal(t_arities, t_indices)
    assert f.leaf_perm == tuple(leaf_perm)
    assert f.node_relabel == tuple(node_relabel)


class TestApplyOne:
    def test_identity(self):
        f = identity_one(pe("[2,2|1]"))
        assert f.is_identity() and f.leaf_perm == (1, 2, 3)

    def test_root_swap_moves_subtree(self):
        f = apply_one(pe("[2,2|1]"), [(2, 1), (1, 2)])
        assert f.target == pe("[2,2|2]")

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            apply_one(pe("[2,2|1]"), [(1, 2, 3), (1, 2)])

    def test_composition_law(self):
        src = pe("[3,2|2]")
        for f in enumerate_morphisms(src, "one"):
            for h in enumerate_morphisms(f.target, "one"):
                comp = f.then(h)
                assert comp.target == h.target
                expect = tuple(h.leaf_perm[f.leaf_perm[i] - 1]
                               for i in range(len(f.leaf_perm)))
                assert comp.leaf_perm == expect

    def test_inverse(self):
        for f in enumerate_morphisms(pe("[2,2,2|1,3]"), "one"):
            assert f.then(f.inverse()).is_identity()


class TestApplyOneOracle:
    def test_every_one_morphism_of_three_node_trees(self):
        count = 0
        for x in enumerate_elements(2, 3, 3):
            pools = [permutations(range(1, g.arity + 1)) for g in x.factors]
            for perms in product(*pools):
                _check_against_oracle(x, perms)
                count += 1
        assert count > 1000

    def test_seeded_one_morphisms_of_four_to_six_node_trees(self):
        rng = random.Random(7)
        for _ in range(200):
            x = pe(_literal(*random_tree(rng, rng.randint(4, 6), 3)))
            perms = []
            for g in x.factors:
                p = list(range(1, g.arity + 1))
                rng.shuffle(p)
                perms.append(tuple(p))
            _check_against_oracle(x, perms)


class TestApplyTwo:
    def test_identity(self):
        assert identity_two(pe("[2,2|1]")).is_identity()

    def test_swap_of_equal_factors(self):
        m = apply_two(pe("[2,2|1]"), (2, 1))
        assert m is not None and m.target == pe("[2,2|1]")

    def test_failing_sigma_exists_on_some_3node_tree(self):
        found = None
        for x in enumerate_elements(2, 3, 4):
            if x.m != 3:
                continue
            for sigma in permutations(range(1, 4)):
                if apply_two(x, sigma) is None:
                    found = (x, sigma)
                    break
            if found:
                break
        assert found is not None

    def test_enumerate_includes_identity(self):
        twos = enumerate_morphisms(pe("[2,2|1]"), "two")
        assert any(t.is_identity() for t in twos)

    def test_counts_on_corollas(self):
        assert len(enumerate_morphisms(pe("[2|]"), "one")) == 2
        assert len(enumerate_morphisms(pe("[3|]"), "one")) == 6

    def test_groupoid_closure(self):
        x = pe("[2,2,1|1,3]")
        for g in enumerate_morphisms(x, "two"):
            inv = g.inverse()
            assert g.then(inv).is_identity()


class TestSquare:
    def test_mirror_square(self):
        # one-edge permutes the child node's prongs, two-edge swaps the
        # two nodes; the square closes on the mirrored tree
        src = pe("[2,2|1]")
        f = apply_one(src, [(1, 2), (2, 1)])
        g = apply_two(src, (2, 1))
        sq = complete_square(f, g)
        assert sq.opposite == pe("[2,2|2]")
        assert sq.commutes()

    def test_degenerate_identity_one(self):
        src = pe("[2,2|1]")
        sq = complete_square(identity_one(src), apply_two(src, (2, 1)))
        assert sq.commutes()
        assert sq.opposite == src

    def test_degenerate_identity_two(self):
        src = pe("[2,2|1]")
        f = apply_one(src, [(2, 1), (1, 2)])
        sq = complete_square(f, identity_two(src))
        assert sq.commutes()
        assert sq.opposite == f.target

    def test_exhaustive_small(self):
        for x in enumerate_elements(2, 3, 2):
            for f in enumerate_morphisms(x, "one"):
                for g in enumerate_morphisms(x, "two"):
                    assert complete_square(f, g).commutes()


class TestInduced:
    def test_identities(self):
        x, y = pe("[2,2|1]"), pe("[2|]")
        h = induced_two_on_composition(x, 1, y, identity_two(x), identity_two(y))
        assert h.is_identity()

    def test_swap_moves_slot(self):
        x = pe("[2,2,2|1,3]")
        f = apply_two(x, (1, 3, 2))
        assert f is not None and f.target == x
        y = pe("[2|]")
        h = induced_two_on_composition(x, 2, y, f, identity_two(y))
        assert h.source == compose(x, 2, y)[0]
        assert h.target == compose(x, f.transport(2), y)[0]

    def test_equivariance_small(self):
        # compose-then-permute equals permute-then-compose on all small pairs
        for x in enumerate_elements(2, 3, 2):
            autos_x = [t for t in (apply_two(x, s)
                                   for s in permutations(range(1, x.m + 1)))
                       if t is not None and t.target == x]
            for i in range(1, x.m + 1):
                for y in enumerate_elements(2, 2, 2):
                    if total_G(y) != x.factors[i - 1]:
                        continue
                    autos_y = [t for t in (apply_two(y, s)
                                           for s in permutations(range(1, y.m + 1)))
                               if t is not None and t.target == y]
                    for f in autos_x:
                        for g in autos_y:
                            h = induced_two_on_composition(x, i, y, f, g)
                            assert h.target == compose(x, f.transport(i), y)[0]


class TestTwoMorphismsBetween:
    def test_between_distinct_objects(self):
        a, b = pe("[2,2|1]"), pe("[2,2|2]")
        mors = two_morphisms_between(a, b)
        assert len(mors) == 2  # both factors equal, either matching works

    def test_none_when_factors_differ(self):
        assert two_morphisms_between(pe("[2,2|1]"), pe("[3,1|1]")) == []

    def test_equals_brute_force_on_four_node_pairs(self):
        pool = enumerate_elements(2, 4, 2)
        for a in pool:
            for b in pool:
                brute = [] if a.m != b.m else [
                    sigma for sigma in permutations(range(1, a.m + 1))
                    if all(b.factors[t] == a.factors[sigma[t] - 1]
                           for t in range(a.m))]
                assert [m.sigma for m in two_morphisms_between(a, b)] == brute

    def test_size_bound_on_twelve_node_chain(self):
        chain = pe("[%s|%s]" % (",".join(["1"] * 12), ",".join(["1"] * 11)))
        with pytest.raises(SizeBound):
            two_morphisms_between(chain, chain)
