"""Levels 0 and 1 render and serialize as pinned here: the point draws as
``*``, a corolla as its arity and prongs, and the point's JSON form reads
back as the point itself."""

from nbase import POINT, corolla, element_from_json, element_to_json
from nbase.render import render


def test_ascii():
    assert render(POINT, "ascii") == "*"
    assert render(corolla(2), "ascii") == "corolla/2 ''"


def test_dot():
    assert render(POINT, "dot") == 'digraph element {\n  p [label="*"];\n}'
    assert render(corolla(2), "dot") == "\n".join([
        "digraph element {",
        '  n1 [shape=triangle,label="2"];',
        "  n1_l1 [shape=point];",
        "  n1 -> n1_l1;",
        "  n1_l2 [shape=point];",
        "  n1 -> n1_l2;",
        "}",
    ])


def test_json():
    assert element_to_json(POINT) == {"level": 0}
    assert element_from_json({"level": 0}) is POINT
