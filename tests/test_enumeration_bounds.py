"""The two work bounds of the enumerator besides its element count.

`_enumerate` calls itself once per level, so a level above
`grammar.MAX_NESTING` raises `SizeBound` before any recursion; level 256
itself enumerates, and its literals parse back.  A unary chain of k
factors is one element, so the element count alone does not bound the
work of `--max-arity 1`: the summed factor count of a level is bounded as
well (in the graft-sequence generator, which the free-algebra count
shares), and the largest enumeration in the repository, (2, 6, 3) with
901,731 factors, stays inside it.  Both end in exit 1 with one `SizeBound`
line, in-process and under `python -O`.
"""

import json
import os
import subprocess
import sys
import time

import pytest

import nbase
from nbase import enumeration
from nbase.cli import main
from nbase.elements import corolla
from nbase.enumeration import enumerate_elements, free_plain_algebra_count
from nbase.errors import SizeBound
from nbase.grammar import MAX_NESTING, format_element, parse_element

DEEP = ["enum", "--level", "3000", "--max-factors", "1", "--max-arity", "1"]
CHAIN = ["enum", "--level", "2", "--max-factors", "1000000", "--max-arity", "1",
         "--count-only"]
DEEP_ERR = "SizeBound: enumeration is bounded by level 256, got 3000\n"
CHAIN_ERR = "SizeBound: enumeration is bounded by 2000000 factors per level\n"


def test_levels_above_the_nesting_bound_raise_size_bound():
    for level in (MAX_NESTING + 1, 3000, 10 ** 9):
        with pytest.raises(SizeBound):
            enumerate_elements(level, 1, 1)
        with pytest.raises(SizeBound):
            enumeration._enumerate(level, 3, 3, 0)
    (x,) = enumerate_elements(MAX_NESTING, 1, 1)
    assert x.level == MAX_NESTING
    assert parse_element(format_element(x)) is x


def test_the_factor_sum_is_bounded(monkeypatch):
    assert enumeration.MAX_FACTOR_SUM > 901_731
    sizes = sum(x.m for x in enumerate_elements(2, 3, 2))
    enumeration._enumerate.cache_clear()
    monkeypatch.setattr(enumeration, "MAX_FACTOR_SUM", sizes)
    try:
        assert sum(x.m for x in enumerate_elements(2, 3, 2)) == sizes  # exactly the cap
        enumeration._enumerate.cache_clear()
        monkeypatch.setattr(enumeration, "MAX_FACTOR_SUM", sizes - 1)
        with pytest.raises(SizeBound, match="factors per level$"):
            enumerate_elements(2, 3, 2)
        # the free-algebra count walks the same sequences
        with pytest.raises(SizeBound, match="factors per level$"):
            free_plain_algebra_count(2, {corolla(1): 1, corolla(2): 1}, corolla(2), 3)
    finally:
        enumeration._enumerate.cache_clear()


@pytest.mark.parametrize("argv,err", [(DEEP, DEEP_ERR), (CHAIN, CHAIN_ERR)],
                         ids=["deep", "chain"])
def test_cli_exits_1_in_seconds(capsys, argv, err):
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 10
    assert capsys.readouterr() == ("", err)


SCRIPT = """
import json, sys, time
from nbase.cli import main
start = time.perf_counter()
code = main(json.loads(sys.argv[1]))
print(code, time.perf_counter() - start < 10)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python -O"])
@pytest.mark.parametrize("argv,err", [(DEEP, DEEP_ERR), (CHAIN, CHAIN_ERR)],
                         ids=["deep", "chain"])
def test_cli_bounds_in_a_fresh_process(flags, argv, err):
    src = os.path.dirname(os.path.dirname(os.path.abspath(nbase.__file__)))
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, *flags, "-c", SCRIPT, json.dumps(argv)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path, NBASE_CHECK="0"), timeout=60)
    assert (proc.stdout, proc.stderr) == ("1 True\n", err)
