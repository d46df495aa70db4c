"""Refusals of the public API that no other test reaches: at least one
call for each such ``raise``.

Each entry is (name, error, fragment, call): ``call()`` must raise
``error``, a named ``NBaseError``, with ``fragment`` in its message, which
pins the ``raise`` it reaches.  The table imports no test framework, so that
``tests/test_refusal_table.py`` can run it in-process and once more in a
``python -O`` subprocess, where asserts are stripped.
"""

from nbase.elements import (
    POINT,
    GammaSequence,
    check_phi_long,
    check_phi_short,
    corolla,
    embed,
    graft_at_slot,
    make,
    normalize,
)
from nbase.enumeration import count_binary, free_ea2_component_count, free_plain_algebra_count
from nbase.errors import (
    DegreeMismatch,
    LevelMismatch,
    MatchViolation,
    NotBinary,
    NotComposable,
    NotImplementedLevel,
    OutOfRange,
    RangeViolation,
    SizeBound,
)
from nbase.grammar import parse_element as pe
from nbase.morphisms import (
    TwoMor2,
    apply_one,
    apply_two,
    complete_square,
    enumerate_morphisms,
    identity_one,
    identity_two,
    induced_two_on_composition,
)
from nbase.ordinals import ONE, encode, eval_phin, from_int, parse_ordinal, to_int
from nbase.presentations import edge_structure
from nbase.render import render_dot
from nbase.trees import to_tree
from nbase.units import ERASER, ZERO, check_runital_bijection, r_compose, r_normalize

TREE = pe("[2,1|1]")            # level 2, 2 factors, total of arity 2
WIDE = pe("[3,1,1|1,2]")        # level 2, 3 factors
LEVEL3 = pe("[[1,1|1],[1|]|2]")
CHAIN7 = pe("[1,1,1,1,1,1,1|1,1,1,1,1,1]")

REFUSALS = [
    # elements
    ("make without factors", RangeViolation, "at least one factor",
     lambda: make(2, [], [])),
    ("make with a factor two levels down", LevelMismatch, "not a level-2 element",
     lambda: make(3, [corolla(2)], [])),
    ("make with an unhashable factor", LevelMismatch, "not a level-1 element",
     lambda: make(2, [[1]], [])),
    ("raw sequence at level 1", LevelMismatch, "level >= 2",
     lambda: GammaSequence(1, (corolla(2),), ()).validate()),
    ("graft across levels", LevelMismatch, "equal levels",
     lambda: graft_at_slot(TREE, 1, embed(TREE))),
    ("graft at slot 0", RangeViolation, "slot 0 outside 1..2",
     lambda: graft_at_slot(TREE, 0, pe("[1|]"))),
    ("graft at slot m+1", RangeViolation, "slot 3 outside 1..2",
     lambda: graft_at_slot(TREE, 3, pe("[1|]"))),
    ("phi long out of order", RangeViolation, "i < j < k",
     lambda: check_phi_long(WIDE, 2, TREE, 1, TREE, 3)),
    ("phi short out of order", RangeViolation, "i < j < k",
     lambda: check_phi_short(WIDE, 1, TREE, 3, 2, TREE)),
    # trees and rendering
    ("to_tree at level 1", LevelMismatch, "level >= 2",
     lambda: to_tree(corolla(2))),
    ("render_dot at level 4", LevelMismatch, "levels <= 3",
     lambda: render_dot(embed(LEVEL3))),
    # morphisms
    ("one-morphisms that do not meet", NotComposable, "one-morphism composition",
     lambda: identity_one(TREE).then(identity_one(WIDE))),
    ("two-morphisms that do not meet", NotComposable, "two-morphism composition",
     lambda: identity_two(TREE).then(identity_two(WIDE))),
    ("two-morphism between factor counts", DegreeMismatch, "equal factor counts",
     lambda: TwoMor2(pe("[2|]"), TREE, (1,))),
    ("two-morphism between other factors", MatchViolation, "is not factor 1",
     lambda: TwoMor2(pe("[2|]"), pe("[1|]"), (1,))),
    ("apply_one at level 3", LevelMismatch, "one-morphisms act on level-2",
     lambda: apply_one(LEVEL3, [(1,), (1,)])),
    ("apply_two at level 3", LevelMismatch, "two-morphisms act on level-2",
     lambda: apply_two(LEVEL3, (1, 2))),
    ("square of edges from two sources", NotComposable, "share their source",
     lambda: complete_square(identity_one(TREE), identity_two(WIDE))),
    ("induced morphism, f not on x", NotComposable, "f must be",
     lambda: induced_two_on_composition(TREE, 1, WIDE, identity_two(WIDE),
                                        identity_two(WIDE))),
    ("induced morphism, g not on y", NotComposable, "g must be",
     lambda: induced_two_on_composition(TREE, 1, WIDE, identity_two(TREE),
                                        identity_two(TREE))),
    ("morphisms of 7 factors", SizeBound, "7 factors, bound is 6",
     lambda: enumerate_morphisms(CHAIN7, "one")),
    # ordinals
    ("negative finite ordinal", OutOfRange, "nonnegative",
     lambda: from_int(-1)),
    ("w as an integer", OutOfRange, "not a finite ordinal",
     lambda: to_int(parse_ordinal("w"))),
    ("value of the point", NotImplementedLevel, "level >= 1",
     lambda: eval_phin(POINT)),
    ("arguments for other slots", OutOfRange, "one argument per slot",
     lambda: eval_phin(pe("[2|]"), [ONE, ONE])),
    # presentations
    ("edge structure at level 3", NotBinary, "level 2",
     lambda: edge_structure(LEVEL3)),
    # units
    ("compose into a degeneracy", NotComposable, "into a degeneracy",
     lambda: r_compose(ERASER, 1, TREE)),
    ("level-1 zero at prong 0", RangeViolation, "0 outside 1..2",
     lambda: r_compose(corolla(2), 0, ZERO)),
    ("level-1 zero past the prongs", RangeViolation, "3 outside 1..2",
     lambda: r_compose(corolla(2), 3, ZERO)),
    ("eraser at level 1", NotImplementedLevel, "eraser lives at level 2",
     lambda: r_compose(corolla(1), 1, ERASER)),
    ("eraser past the factors", RangeViolation, "factor 2 outside 1..1",
     lambda: r_compose(pe("[1|]"), 2, ERASER)),
    ("plug normalization at level 3", NotImplementedLevel, "level <= 2",
     lambda: r_normalize(LEVEL3)),
    ("bijection check at level 3", NotImplementedLevel, "level <= 2",
     lambda: check_runital_bijection(3)),
    # counting formulas
    ("binary count of k 2.0", RangeViolation, "int k >= 1, got 2.0",
     lambda: count_binary(2.0)),
    ("component count of size -5", RangeViolation, "int size >= 0, got -5",
     lambda: free_ea2_component_count(-5, 3)),
    ("component count of n 3.0", RangeViolation, "int n >= 2, got 3.0",
     lambda: free_ea2_component_count(2, 3.0)),
    ("component count of n True", RangeViolation, "int n >= 2, got True",
     lambda: free_ea2_component_count(2, True)),
    ("component count of n 3 * 10**5", SizeBound, "n <= 2000, got 300000",
     lambda: free_ea2_component_count(2, 3 * 10 ** 5)),
    ("component count of a 33-bit multiset", SizeBound, "terms of 65536 bits",
     lambda: free_ea2_component_count(2 ** 32 - 1998, 2000)),
    ("free-algebra count of bound -1", RangeViolation, "int bound >= 0, got -1",
     lambda: free_plain_algebra_count(1, {POINT: 3}, POINT, -1)),
    ("free-algebra count of bound True", RangeViolation, "int bound >= 0, got True",
     lambda: free_plain_algebra_count(1, {POINT: 3}, POINT, True)),
    ("free-algebra count of size 3.0", RangeViolation, "int size >= 0, got 3.0",
     lambda: free_plain_algebra_count(2, {corolla(2): 3.0}, corolla(3), 2)),
    ("free-algebra count of bound 10**5", SizeBound, "terms of 65536 bits",
     lambda: free_plain_algebra_count(1, {POINT: 3}, POINT, 10 ** 5)),
    ("free-algebra count of level 0", RangeViolation, "int level >= 1, got 0",
     lambda: free_plain_algebra_count(0, {corolla(2): 1}, corolla(3), 2)),
    ("free-algebra count of level 'x'", RangeViolation, "int level >= 1, got 'x'",
     lambda: free_plain_algebra_count("x", {corolla(2): 1}, corolla(3), 2)),
    ("free-algebra count of level True", RangeViolation, "int level >= 1, got True",
     lambda: free_plain_algebra_count(True, {POINT: 1}, POINT, 2)),
    ("free-algebra count of level-1 sizes at level 3", LevelMismatch,
     "level-3 free-algebra count takes level-2 elements, got <1:2>",
     lambda: free_plain_algebra_count(3, {corolla(2): 1}, corolla(3), 2)),
    ("free-algebra count of level-2 sizes at level 2", LevelMismatch,
     "level-2 free-algebra count takes level-1 elements, got <2:[2|]>",
     lambda: free_plain_algebra_count(2, {pe("[2|]"): 1}, pe("[2,2|1]"), 3)),
    ("free-algebra count of a level-2 total at level 2", LevelMismatch,
     "level-2 free-algebra count takes level-1 elements, got <2:[2,2|1]>",
     lambda: free_plain_algebra_count(2, {corolla(2): 1}, pe("[2,2|1]"), 3)),
]

# a level or count whose class is not int, bools included, is named
REFUSALS += [("encode at level %r" % (level,), LevelMismatch,
              "encode needs an int level, got %r" % (level,),
              lambda level=level: encode(parse_ordinal("w+1"), level))
             for level in (2.0, "2", None, True)]
REFUSALS += [("finite ordinal of count %r" % (count,), OutOfRange,
              "a finite ordinal needs an int count, got %r" % (count,),
              lambda count=count: from_int(count))
             for count in (2.0, "2", None, True)]

# a raw level that is not an int is refused in either index order: the
# canonical order of the unsorted sequence is [9955,3,2|1,7]
RAW_ORDERS = {"unsorted": ((corolla(9955), corolla(2), corolla(3)), (5, 1)),
              "canonical": ((corolla(9955), corolla(3), corolla(2)), (1, 7))}
REFUSALS += [("raw sequence of level %r, %s" % (level, order), LevelMismatch,
              "int level >= 2, got %r" % (level,),
              lambda level=level, seq=seq: normalize(GammaSequence(level, *seq)))
             for level in (2.0, None, "2") for order, seq in RAW_ORDERS.items()]


def outcomes():
    """Name -> [class name, message] of what each call raised, or None."""
    found = {}
    for name, _error, _fragment, call in REFUSALS:
        try:
            call()
        except Exception as exc:  # every outcome is reported, named or not
            found[name] = [type(exc).__name__, str(exc)]
        else:
            found[name] = None
    return found
