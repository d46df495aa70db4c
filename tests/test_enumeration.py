import random
import time

import pytest

from nbase.elements import POINT, corolla, embed, total_G
from nbase.enumeration import (
    MAX_BINARY_FACTORS,
    catalan,
    count_binary,
    enumerate_elements,
    free_ea2_component_count,
    free_plain_algebra_count,
)
from nbase.errors import NBaseError, SizeBound
from nbase.grammar import format_element
from nbase.randgen import random_with_total


class TestEnumerate:
    def test_level1(self):
        assert enumerate_elements(1, 1, 4) == [corolla(a) for a in (1, 2, 3, 4)]

    def test_level2_small(self):
        got = {format_element(e) for e in enumerate_elements(2, 2, 2)}
        assert got == {"[1|]", "[2|]", "[1,1|1]", "[2,1|1]", "[2,1|2]",
                       "[1,2|1]", "[2,2|1]", "[2,2|2]"}

    def test_no_duplicates_and_sorted(self):
        es = enumerate_elements(2, 3, 3)
        assert len(es) == len(set(es))
        lits = [format_element(e) for e in es]
        assert lits == sorted(lits)

    def test_level3_all_validate(self):
        for e in enumerate_elements(3, 2, 2):
            assert e.level == 3
            assert total_G(e).level == 2

    def test_closure_cross_check(self):
        """Index-range enumeration equals the grafting closure of corollas."""
        from nbase.elements import graft_at_slot

        enumerated = set(enumerate_elements(2, 3, 2))
        seeds = {embed(corolla(a)) for a in (1, 2)}
        closure = set(seeds)
        frontier = set(seeds)
        while frontier:
            new = set()
            for x in frontier:
                total = total_G(x)
                for s in range(1, total.m + 1):
                    for y in seeds:
                        z = graft_at_slot(x, s, y).element
                        if z.m <= 3 and z not in closure:
                            new.add(z)
            frontier = new
            closure |= new
        assert closure == enumerated


class TestBinaryCounts:
    def test_catalan_values(self):
        assert [count_binary(k) for k in range(1, 9)] == \
            [1, 2, 5, 14, 42, 132, 429, 1430]

    def test_matches_recurrence(self):
        rec = [1]
        for k in range(1, 9):
            rec.append(sum(rec[i] * rec[k - 1 - i] for i in range(k)))
            assert count_binary(k) == rec[k] == catalan(k)

    def test_matches_recurrence_to_40_and_is_bounded(self):
        rec = [1]
        for k in range(1, 41):
            rec.append(sum(rec[i] * rec[k - 1 - i] for i in range(k)))
            assert count_binary(k) == rec[k]
        # the bound is checked before any counting
        with pytest.raises(SizeBound):
            count_binary(MAX_BINARY_FACTORS + 1)

    def test_matches_enumeration(self):
        for k in range(1, 6):
            shapes = [e for e in enumerate_elements(2, k, 2)
                      if e.m == k and all(f.arity == 2 for f in e.factors)]
            assert len(shapes) == count_binary(k)


class TestFreeAlgebraCounts:
    def test_level1_geometric(self):
        assert free_plain_algebra_count(1, {POINT: 3}, POINT, 3) == 3 + 9 + 27

    def test_all_sizes_zero(self):
        assert free_plain_algebra_count(1, {POINT: 0}, POINT, 5) == 0

    def test_level2_binary_support(self):
        sizes = {corolla(2): 1}
        n = free_plain_algebra_count(2, sizes, corolla(3), 2)
        # exactly the two-factor all-binary elements with total 3
        expected = [z for z in enumerate_elements(2, 2, 2)
                    if total_G(z) == corolla(3)
                    and all(f == corolla(2) for f in z.factors)]
        assert n == len(expected) == 2

    def test_monotone_in_sizes(self):
        small = free_plain_algebra_count(2, {corolla(2): 1}, corolla(3), 3)
        big = free_plain_algebra_count(2, {corolla(2): 2}, corolla(3), 3)
        assert big >= small


class TestComponentCounts:
    def test_formula_instances(self):
        assert free_ea2_component_count(1, 2) == (1, 2, 1, 2)
        assert free_ea2_component_count(2, 3) == (2, 6, 3, 36)

    def test_empty_generator_set(self):
        for n in (2, 3, 5):
            shapes, perms, multi, product = free_ea2_component_count(0, n)
            assert multi == 0 and product == 0

    def test_factors_expose_shape(self):
        shapes, perms, multi, product = free_ea2_component_count(3, 4)
        assert shapes == catalan(3)
        assert perms == 24
        assert product == shapes * perms * multi


def test_the_largest_admitted_counts_return_in_under_a_second():
    from nbase.enumeration import _MAX_COUNT_BITS

    n, bits = MAX_BINARY_FACTORS, _MAX_COUNT_BITS
    # the multiset factor's top, s_size + n - 2, has bits // (n - 1) bits
    s_size = 2 ** (bits // (n - 1)) - n + 1
    largest = [
        lambda: count_binary(n),
        lambda: free_ea2_component_count(s_size, n),
        lambda: free_plain_algebra_count(1, {POINT: 3}, POINT, bits // 2),
        lambda: free_plain_algebra_count(1, {POINT: 2 ** bits - 1}, POINT, 1),
    ]
    one_more = [
        lambda: count_binary(n + 1),
        lambda: free_ea2_component_count(s_size + 1, n),
        lambda: free_plain_algebra_count(1, {POINT: 3}, POINT, bits // 2 + 1),
        lambda: free_plain_algebra_count(1, {POINT: 2 ** bits - 1}, POINT, 2),
    ]
    for call in largest:
        start = time.perf_counter()
        call()
        assert time.perf_counter() - start < 1
    for call in one_more:
        with pytest.raises(SizeBound):
            call()
    assert free_plain_algebra_count(1, {POINT: 3}, POINT, bits // 2) == \
        (3 ** (bits // 2 + 1) - 3) // 2


@pytest.mark.parametrize("call", [
    lambda: random_with_total(1, corolla(2), random.Random(0)),
    lambda: free_plain_algebra_count(1, {POINT: 2}, corolla(2), 3),
    lambda: free_ea2_component_count(2, 1),
])
def test_misuse_raises_domain_errors(call):
    with pytest.raises(NBaseError):
        call()


def test_negative_level_is_a_level_mismatch():
    from nbase.errors import LevelMismatch

    for level in (-1, -5):
        with pytest.raises(LevelMismatch):
            enumerate_elements(level, 3, 3)


def test_enumeration_is_bounded(monkeypatch):
    from nbase import enumeration

    # the largest enumeration in the repository, (2, 6, 3), is well inside
    assert enumeration.MAX_ELEMENTS > 153_012
    enumeration._enumerate.cache_clear()
    monkeypatch.setattr(enumeration, "MAX_ELEMENTS", 8)
    try:
        assert len(enumerate_elements(2, 2, 2)) == 8   # exactly the cap
        for args in ((2, 3, 2), (3, 2, 2), (5, 3, 2)):
            with pytest.raises(SizeBound):
                enumerate_elements(*args)
    finally:
        enumeration._enumerate.cache_clear()


def test_a_factor_bound_below_1_counts_nothing():
    assert free_plain_algebra_count(
        2, {corolla(1): 1, corolla(2): 2}, corolla(2), 0) == 0
    assert free_plain_algebra_count(1, {POINT: 2}, POINT, 0) == 0


@pytest.mark.parametrize("level,bound",
                         [(2, 0), (3, -5), (1, 0), (1, -5), (0, 0)])
def test_a_factor_bound_below_1_enumerates_nothing(capsys, level, bound):
    from nbase.cli import main

    assert enumerate_elements(level, bound, 3) == []
    assert main(["enum", "--level", str(level),
                 "--max-factors", str(bound)]) == 0
    assert capsys.readouterr().out == ""
