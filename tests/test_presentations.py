from math import factorial

import pytest

from nbase.enumeration import enumerate_elements
from nbase.errors import NotBinary, Overflow, RangeViolation
from nbase.grammar import parse_element as pe
from nbase.presentations import (
    Presentation,
    edge_structure,
    free_reduce,
    symmetric_presentation,
    todd_coxeter,
    tree_presentation,
    verify_symmetric_realization,
)


def binary_shapes(k):
    return [e for e in enumerate_elements(2, k, 2)
            if e.m == k and all(f.arity == 2 for f in e.factors)]


class TestToddCoxeter:
    def test_trivial(self):
        assert todd_coxeter(Presentation(1, ((1, 1),))).order == 2

    @pytest.mark.parametrize("n,order", [(2, 2), (3, 6), (4, 24), (5, 120), (6, 720)])
    def test_symmetric(self, n, order):
        ct = todd_coxeter(symmetric_presentation(n))
        assert ct.complete and ct.order == order

    def test_dihedral(self):
        # <a,b | a^2, b^2, (ab)^5> has order 10
        p = Presentation(2, ((1, 1), (2, 2), (1, 2) * 5))
        assert todd_coxeter(p).order == 10

    def test_free_reduction(self):
        assert free_reduce((1, -1, 2, 2, -2)) == (2,)

    def test_letter_outside_generators(self):
        for rel in ((1, 3), (0,)):
            with pytest.raises(RangeViolation):
                Presentation(2, (rel,))

    def test_overflow(self):
        # free product Z/2 * Z/2 * Z/2 is infinite
        p = Presentation(3, ((1, 1), (2, 2), (3, 3)))
        with pytest.raises(Overflow):
            todd_coxeter(p, max_cosets=500)

    def test_five_node_star_presentation(self):
        # generators a,b,c,d around a degree-3 node with a tail; the group is
        # the permutations of the five nodes
        p = Presentation(4, (
            (1, 1), (2, 2), (3, 3), (4, 4),
            (1, 2, 1, 2, 1, 2), (2, 3, 2, 3, 2, 3),
            (1, 4, 1, 4, 1, 4), (4, 2, 4, 2, 4, 2),
            (4, 1, 2, 1, 4, 1, 2, 1), (1, 3, 1, 3), (3, 4, 3, 4)))
        assert todd_coxeter(p).order == 120


class TestEdgeStructure:
    def test_two_node_tree(self):
        es = edge_structure(pe("[2,2|1]"))
        assert es.edges == ((1, 2),)

    def test_star_shape(self):
        # node 2 carries three edges
        es = edge_structure(pe("[2,2,2,2|1,1,3]"))
        assert set(es.incidence[2]) and len(es.incidence[2]) == 3

    def test_degree_bound(self):
        for k in range(2, 6):
            for x in binary_shapes(k):
                es = edge_structure(x)
                assert all(len(v) <= 3 for v in es.incidence.values())
                assert len(es.edges) == k - 1

    def test_not_binary(self):
        with pytest.raises(NotBinary):
            edge_structure(pe("[3,2|1]"))


class TestTreePresentation:
    def test_single_edge(self):
        p, _es = tree_presentation(pe("[2,2|1]"))
        assert todd_coxeter(p).order == 2

    def test_caterpillar_equals_adjacent_presentation(self):
        # a path of 4 nodes gives the order of the 4-letter group
        x = pe("[2,2,2,2|1,1,1]")
        p, es = tree_presentation(x)
        assert todd_coxeter(p).order == 24

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_orders_are_factorials(self, k):
        for x in binary_shapes(k):
            p, _es = tree_presentation(x)
            assert todd_coxeter(p).order == factorial(k)

    def test_relabeling_invariance(self):
        # different shapes with the same node count give the same order
        orders = {todd_coxeter(tree_presentation(x)[0]).order
                  for x in binary_shapes(4)}
        assert orders == {24}


class TestRealization:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_realization(self, k):
        for x in binary_shapes(k):
            rep = verify_symmetric_realization(x)
            assert rep.relators_hold
            assert rep.generated_order == factorial(k)
            assert rep.enumerated_order == factorial(k)
            assert rep.isomorphic

    def test_negative_control_drop_twist(self):
        # dropping the twist relator on a degree-3 node frees the group
        x = pe("[2,2,2,2|1,1,3]")
        p, es = tree_presentation(x)
        common = [r for r in p.relators if len(set(map(abs, r))) < 3]
        weakened = Presentation(p.generators, tuple(common))
        try:
            ct = todd_coxeter(weakened, max_cosets=3000)
            assert ct.order != factorial(4)
        except Overflow:
            pass  # the weakened group does not close at all

    def test_edges_match_two_morphisms(self):
        # every edge generator is a valid factor swap of the two nodes
        from nbase.morphisms import two_morphisms_between
        for x in binary_shapes(4):
            es = edge_structure(x)
            for (u, v) in es.edges:
                sigma = list(range(1, x.m + 1))
                sigma[u - 1], sigma[v - 1] = v, u
                # all factors are the 2-corolla, so the swap always matches
                mors = [m for m in two_morphisms_between(x, x)
                        if m.sigma == tuple(sigma)]
                assert len(mors) == 1
