"""The records outside ``elements`` print, compare and refuse mutation as
pinned here.

For fixed inputs: ``repr()`` of each record (field names and order, so
keyword construction too), ``==`` and ``!=`` between records of one type,
hashability, ``AttributeError`` on setting a field or a new attribute of
every immutable record, and the ordinal value's own equality and order.
No record is compared with a plain tuple.
"""

import hashlib
import pickle

import pytest

from nbase.grammar import parse_element as pe
from nbase.morphisms import apply_one, apply_two, complete_square
from nbase.ordinals import Ordinal, parse_ordinal
from nbase.presentations import (
    Presentation,
    edge_structure,
    symmetric_presentation,
    todd_coxeter,
    tree_presentation,
    verify_symmetric_realization,
)
from nbase.selftest import SuiteReport, run_suite
from nbase.units import check_runital_bijection, parse_relement

TREE = pe("[2,2,2,2|1,1,3]")
SQUARE_SOURCE = pe("[2,2,2|1,1]")


def records():
    """One of each immutable record, built from the fixed inputs."""
    tp, es = tree_presentation(TREE)
    f = apply_one(SQUARE_SOURCE, [(2, 1), (1, 2), (2, 1)])
    return {
        "symmetric": symmetric_presentation(4),
        "tree": tp,
        "edges": es,
        "realization": verify_symmetric_realization(TREE),
        "one": apply_one(pe("[3,2,2|1,2]"), [(2, 1, 3), (2, 1), (1, 2)]),
        "two": apply_two(pe("[2,2|1]"), (2, 1)),
        "square": complete_square(f, apply_two(SQUARE_SOURCE, (1, 3, 2))),
        "relement": parse_relement("[2,0|1]"),
        "bijection": check_runital_bijection(2, 3, 3),
    }


EXPECTED = {
    "symmetric": "Presentation(generators=3, relators=((1, 1), (2, 2), (3, 3), "
                 "(1, 2, 1, 2, 1, 2), (2, 3, 2, 3, 2, 3), (1, 3, 1, 3)))",
    "tree": "Presentation(generators=3, relators=((1, 1), (2, 2), (3, 3), "
            "(1, 2, 1, 2, 1, 2), (1, 3, 1, 3, 1, 3), (2, 3, 2, 3, 2, 3), "
            "(1, 2, 3, 2, 1, 2, 3, 2)))",
    "edges": "EdgeStructure(node_count=4, edges=((1, 2), (2, 3), (2, 4)), "
             "incidence={1: (1,), 2: (1, 2, 3), 3: (2,), 4: (3,)})",
    "realization": "RealizationReport(nodes=4, edges=3, relators_hold=True, "
                   "generated_order=24, enumerated_order=24, isomorphic=True)",
    "one": "OneMor2(source=<2:[3,2,2|1,2]>, node_perms=((2, 1, 3), (2, 1), (1, 2)), "
           "target=<2:[3,2,2|2,2]>, leaf_perm=(4, 2, 3, 1, 5), node_relabel=(1, 2, 3))",
    "two": "TwoMor2(source=<2:[2,2|1]>, target=<2:[2,2|1]>, sigma=(2, 1))",
    "square": "Square12(source=<2:[2,2,2|1,1]>, top=TwoMor2(source=<2:[2,2,2|1,1]>, "
              "target=<2:[2,2,2|1,1]>, sigma=(1, 3, 2)), left=OneMor2("
              "source=<2:[2,2,2|1,1]>, node_perms=((2, 1), (1, 2), (2, 1)), "
              "target=<2:[2,2,2|2,2]>, leaf_perm=(3, 2, 4, 1), node_relabel=(1, 2, 3)), "
              "right=OneMor2(source=<2:[2,2,2|1,1]>, node_perms=((2, 1), (2, 1), (1, 2)), "
              "target=<2:[2,2,2|2,3]>, leaf_perm=(3, 4, 2, 1), node_relabel=(1, 2, 3)), "
              "bottom=TwoMor2(source=<2:[2,2,2|2,2]>, target=<2:[2,2,2|2,3]>, "
              "sigma=(1, 3, 2)), opposite=<2:[2,2,2|2,3]>)",
    "relement": "<R:[2,0|1]>",
    "bijection": "BijectionReport(level=2, plain_count=165, extended_count=165, "
                 "equal=True, missing=(), extra=())",
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_repr_is_pinned(name):
    assert repr(records()[name]) == EXPECTED[name]


def test_coset_table_repr_is_pinned():
    text = repr(todd_coxeter(symmetric_presentation(4)))
    assert text.startswith("CosetTable(generators=3, rows=[[1, 1, 5, 5, 9, 9], "
                           "[0, 0, 2, 2, 10, 10], ")
    assert text.endswith("[12, 12, 22, 22, 21, 21]], complete=True, order=24, "
                         "live=24, defined=24, merged=0)")
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4a6f2ee710cbb63e81eea001d550951586fa49732d4eef5981a89eb6bcd36288")


def test_the_degeneracy_tags_and_suite_summary_are_pinned():
    assert repr(parse_relement("!e")) == "<R:eraser>"
    assert repr(parse_relement("0")) == "<R:zero>"
    assert run_suite("counts").summary() == "suite counts     pass    19 fail   0"


def test_keyword_construction_and_relator_reduction():
    p = Presentation(generators=2, relators=((1, -1, 2), (2, 1, -1, 2)))
    assert repr(p) == "Presentation(generators=2, relators=((2,), (2, 2)))"
    assert str(p) == "<a1,a2 | a2, a2*a2>"


def test_equal_and_unequal_records_of_one_type():
    a, b = records(), records()
    for name in EXPECTED:
        assert a[name] == b[name] and not a[name] != b[name], name
    unequal = [
        (symmetric_presentation(4), symmetric_presentation(5)),
        (edge_structure(TREE), edge_structure(pe("[2,2,2,2|1,2,3]"))),
        (verify_symmetric_realization(TREE),
         verify_symmetric_realization(pe("[2,2,2|1,1]"))),
        (apply_one(SQUARE_SOURCE, [(2, 1), (1, 2), (2, 1)]),
         apply_one(SQUARE_SOURCE, [(1, 2), (1, 2), (2, 1)])),
        (apply_two(SQUARE_SOURCE, (1, 3, 2)), apply_two(SQUARE_SOURCE, (1, 2, 3))),
        (parse_relement("[2,0|1]"), parse_relement("[2,1|1]")),
        (parse_relement("!e"), parse_relement("0")),
        (check_runital_bijection(2, 3, 3), check_runital_bijection(2, 2, 2)),
        (todd_coxeter(symmetric_presentation(3)), todd_coxeter(symmetric_presentation(4))),
    ]
    for x, y in unequal:
        assert x != y and not x == y, (x, y)
    assert todd_coxeter(symmetric_presentation(4)) == todd_coxeter(symmetric_presentation(4))


def test_hashable_exactly_when_every_field_is():
    a, b = records(), records()
    for name in ("symmetric", "tree", "realization", "one", "two", "square",
                 "relement", "bijection"):
        assert hash(a[name]) == hash(b[name]), name
    with pytest.raises(TypeError):
        hash(a["edges"])  # its incidence is a dict
    with pytest.raises(TypeError):
        hash(todd_coxeter(symmetric_presentation(3)))


FIELD = {"symmetric": "relators", "tree": "generators", "edges": "incidence",
         "realization": "isomorphic", "one": "target", "two": "sigma",
         "square": "opposite", "relement": "tag", "bijection": "equal"}


@pytest.mark.parametrize("name", sorted(FIELD))
def test_immutable_records_refuse_setattr(name):
    record = records()[name]
    with pytest.raises(AttributeError):
        setattr(record, FIELD[name], None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_presentations_and_reports_survive_pickling():
    p = symmetric_presentation(4)
    assert pickle.loads(pickle.dumps(p)) == p
    rep = pickle.loads(pickle.dumps(run_suite("counts")))
    assert (rep.suite, rep.passed, rep.failed, rep.first_failure) == ("counts", 19, 0, None)


def test_ordinal_is_a_value_not_a_tuple():
    x, y = parse_ordinal("w^(w)+w+2"), parse_ordinal("w^(w)+w+2")
    z = parse_ordinal("w+2")
    assert repr(x) == "<ord w^(w)+w+2>"
    assert x == y and not x != y and hash(x) == hash(y)
    assert x != z and not x == z
    assert Ordinal(x.terms) == x and x.terms == y.terms
    with pytest.raises(TypeError):
        x < z
    with pytest.raises(AttributeError):
        x.extra = None


def test_suite_report_counts_and_keeps_the_first_failure():
    rep = SuiteReport("demo")
    rep.check(True, lambda: "never")
    rep.check(False, lambda: "first")
    rep.check(False, lambda: "second")
    assert (rep.suite, rep.passed, rep.failed, rep.first_failure) == ("demo", 1, 2, "first")
    assert rep.summary() == "suite demo       pass     1 fail   2  first failure: first"
