import random
import re
from math import factorial

import pytest

from nbase.enumeration import enumerate_elements
from nbase.errors import NotBinary, Overflow, RangeViolation
from nbase.grammar import parse_element as pe
from nbase.presentations import (
    Presentation,
    edge_structure,
    free_reduce,
    schreier_sims_order,
    symmetric_presentation,
    todd_coxeter,
    tree_presentation,
    verify_symmetric_realization,
)
from oracle_perms import closure_order


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

    def test_edges_match_the_tree_oracle(self):
        from oracle_trees import build_tree, preorder
        for k in range(2, 8):
            for x in binary_shapes(k):
                root = build_tree([2] * k, list(x.indices), "x")
                expected = sorted((node["tag"][1], child["tag"][1])
                                  for node in preorder(root)
                                  for child in node["children"] if child)
                assert edge_structure(x).edges == tuple(expected)


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


def columns(word):
    return [2 * l - 2 if l > 0 else -2 * l - 1 for l in word]


class TestCosetTable:
    @pytest.mark.parametrize("pres", [
        symmetric_presentation(4), symmetric_presentation(5),
        symmetric_presentation(6),
        tree_presentation(pe("[2,2,2,2|1,1,3]"))[0],
        tree_presentation(pe("[2,2,2,2,2,2|1,2,2,4,6]"))[0]])
    def test_rows_are_the_regular_action(self, pres):
        ct = todd_coxeter(pres)
        order = ct.order
        assert ct.complete and len(ct.rows) == order
        for c in range(2 * pres.generators):
            image = [row[c] for row in ct.rows]
            assert sorted(image) == list(range(order))
            back = [row[c ^ 1] for row in ct.rows]
            assert all(back[image[i]] == i for i in range(order))
        for r in pres.relators:
            cols = columns(r)
            for coset in range(order):
                x = coset
                for c in cols:
                    x = ct.rows[x][c]
                assert x == coset

    @pytest.mark.parametrize("n,two_columns", [(4, 35), (5, 220), (6, 1513),
                                               (7, 12145)])
    def test_definition_count_is_pinned(self, n, two_columns):
        # the HLT definition order fixes how many cosets are ever defined;
        # two_columns is the count when an involution had an inverse column
        defined = {4: 24, 5: 129, 6: 825, 7: 6411}[n]
        ct = todd_coxeter(symmetric_presentation(n))
        assert ct.defined == defined <= two_columns
        assert ct.defined - ct.merged == ct.live == ct.order == factorial(n)

    def test_cap_counts_live_cosets(self):
        # S7 defines 6411 cosets but never holds more than 6000 live
        ct = todd_coxeter(symmetric_presentation(7), max_cosets=6000)
        assert ct.order == 5040 and ct.defined > 6000

    def test_overflow_reports_counts(self):
        p = Presentation(3, ((1, 1), (2, 2), (3, 3)))
        with pytest.raises(Overflow) as exc:
            todd_coxeter(p, max_cosets=500)
        m = re.fullmatch(r"coset cap 500 exceeded: defined (\d+), live 500, "
                         r"merged (\d+)", str(exc.value))
        assert m and int(m.group(1)) - int(m.group(2)) == 500


def transposition(n, u, v):
    perm = list(range(1, n + 1))
    perm[u - 1], perm[v - 1] = v, u
    return tuple(perm)


def cycle(n, *points):
    perm = list(range(1, n + 1))
    for a, b in zip(points, points[1:] + points[:1]):
        perm[a - 1] = b
    return tuple(perm)


class TestSchreierSims:
    def test_every_binary_shape_up_to_seven_nodes(self):
        oracle = {}
        for k in range(2, 8):
            for x in binary_shapes(k):
                edges = edge_structure(x).edges
                gens = [transposition(k, u, v) for u, v in edges]
                if edges not in oracle:
                    oracle[edges] = closure_order(gens, k)
                assert schreier_sims_order(gens, k) == oracle[edges] == factorial(k)

    @pytest.mark.parametrize("n,edges", [
        (6, ((1, 2), (2, 3), (4, 5))),
        (7, ((1, 2), (3, 4), (4, 5), (6, 7))),
        (5, ()),
    ])
    def test_disconnected_edge_sets(self, n, edges):
        gens = [transposition(n, u, v) for u, v in edges]
        got = schreier_sims_order(gens, n)
        assert got == closure_order(gens, n) < factorial(n)

    @pytest.mark.parametrize("n,gens", [
        (6, [cycle(6, 1, 2, 3, 4, 5, 6), transposition(6, 1, 2)]),
        (5, [cycle(5, 1, 2, 3), cycle(5, 3, 4, 5)]),
        (6, [cycle(6, 1, 2, 3, 4, 5, 6), (6, 5, 4, 3, 2, 1)]),
        (7, [cycle(7, 1, 2, 3), cycle(7, 4, 5), cycle(7, 6, 7)]),
        (7, [cycle(7, 1, 2, 3, 4, 5, 6, 7), cycle(7, 1, 2, 4)]),
    ])
    def test_other_generating_sets(self, n, gens):
        assert schreier_sims_order(gens, n) == closure_order(gens, n)

    def test_random_generating_sets(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(1, 6)
            gens = []
            for _ in range(rng.randint(0, 3)):
                perm = list(range(1, n + 1))
                rng.shuffle(perm)
                gens.append(tuple(perm))
            assert schreier_sims_order(gens, n) == closure_order(gens, n)


class TestEightNodeRealization:
    @pytest.mark.parametrize("literal", [
        "[2,2,2,2,2,2,2,2|1,1,1,1,1,1,1]",   # left comb
        "[2,2,2,2,2,2,2,2|2,3,4,5,6,7,8]",   # right comb
        "[2,2,2,2,2,2,2,2|1,3,3,4,4,7,8]",   # seeded, random.Random(1)
        "[2,2,2,2,2,2,2,2|1,1,1,3,4,6,7]",   # seeded, random.Random(2)
    ])
    def test_verifies_at_the_default_cap(self, literal):
        rep = verify_symmetric_realization(pe(literal))
        assert rep.relators_hold and rep.isomorphic
        assert rep.generated_order == rep.enumerated_order == 40320
