"""The literal lists of `enumerate_elements`, pinned by digest.

Each row is one call, hashed as its literals joined by newlines: a change
of any element or of the order changes the digest.  `(2, 3, 12)` has
two-digit arities, so `1` sorts next to `10`-`12`, the prefix case of
string order.  The rows of four bounds are `_enumerate` pools in
generation order: `(2, 4, 3, 0)`, the arity-0 pool of the unit bijection
check, and the pools that `(2, 5, 3)` and `(3, 3, 2)` sort.  The rows run
in-process, where the suite's check mode validates every element the
enumerator builds, and in a subprocess with check mode off, which must
print the same digests.  Every sorted row is also the generation order
sorted by `format_element`.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import nbase
from nbase import elements
from nbase.enumeration import _enumerate, enumerate_elements
from nbase.grammar import format_element

PINS = {
    (0, 1, 3): "684888c0ebb17f374298b65ee2807526c066094c701bcc7ebbe1c1095f494fc1",
    (1, 3, 4): "67497b776854008d38c2340e14925a64b36686230bccaa777db68f644196015f",
    (2, 3, 1): "d78a6699f241ad1970c89b4836667ff67f34c68198c69d4392aa27e4135c151b",
    (2, 5, 3): "5dcb618f9bd7ea7e67482adf87e6ee7cc3a4cf47c41960c51ae61e820dccc842",
    (2, 4, 4): "14dfb87849d838857911a68ab9918127c74e59331405952f766d7e2fff2c2b37",
    (3, 3, 2): "8dbf88fd8711a3ea47f5d29d3783cd05e6f441584a20581932d99f9069eeb4ee",
    (3, 2, 3): "c858e606111d9b4bd972fc891eaf2a21ff43831fda2d178af5ebc265dab0a270",
    (4, 2, 2): "0b1de4bf9a289bc95c2f2665fc7fe7394ea0bfbdc656b5853f15f97ede401c0f",
    (2, 3, 12): "0bb477a08d44fd462894a9409e9d1a44e169ced0967bbc811848b42232fbacd2",
    (2, 4, 3, 0): "d905cb01885122927e291f152b022db14a3e0ba74c9c78507b23646d00f06400",
    (2, 5, 3, 1): "add635ea5379c35dd3b9adaee2ec8569ed77987c419e167930eeba5c5bf33f6e",
    (3, 3, 2, 1): "505b65c214d8937623cc7581427cd197888f0d43c1768ed49d7b9c651fd40225",
}


def digest(args):
    found = _enumerate(*args) if len(args) == 4 else enumerate_elements(*args)
    return hashlib.sha256("\n".join(map(format_element, found)).encode()).hexdigest()


def all_digests():
    return {",".join(map(str, args)): digest(args) for args in PINS}


@pytest.mark.parametrize("args", list(PINS), ids=lambda a: ",".join(map(str, a)))
def test_literal_lists_in_check_mode(args):
    assert elements._CHECK
    assert digest(args) == PINS[args]


@pytest.mark.parametrize("args", [a for a in PINS if len(a) == 3],
                         ids=lambda a: ",".join(map(str, a)))
def test_sorted_rows_are_generation_order_sorted_by_literal(args):
    assert enumerate_elements(*args) == sorted(_enumerate(*args, 1), key=format_element)


def test_literal_lists_with_check_mode_off():
    src = os.path.dirname(os.path.dirname(os.path.abspath(nbase.__file__)))
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([src, here] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    code = ("import json, test_enumeration_pin as t, nbase.elements as e; "
            "assert not e._CHECK; print(json.dumps(t.all_digests()))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path, NBASE_CHECK="0"), timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got == {",".join(map(str, args)): pin for args, pin in PINS.items()}
