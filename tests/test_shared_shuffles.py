"""One shared ShuffleMap per composition shape.

`compose` keeps one `ShuffleMap` per key `(i, m_y, perm)`, `perm` the
canonical position of each factor of the raw order
x_1..x_{i-1}, y_1..y_l, x_{i+1}..x_k, so memo entries of one shape share
it.  The map is a function of the key: a map built from an empty table
equals the shared one, for every composable pair of small pools and a
seeded sample of a larger one.  A memo entry then costs its key and its
result pair, not two dicts of its own.  Because they are shared, the
maps refuse writes, and pickle and deep-copy as equal read-only maps.
"""

import copy
import os
import pickle
import random
import subprocess
import sys

import pytest

import nbase
from nbase import elements
from nbase.elements import compose, corolla, graft_at_slot, make, slots_F, total_G
from nbase.enumeration import enumerate_elements
from nbase.grammar import parse_element as pe


def composable(bounds):
    """Every (x, i, y) of the pool with y's total in slot i of x."""
    pool = enumerate_elements(*bounds)
    by_total = {}
    for y in pool:
        by_total.setdefault(total_G(y), []).append(y)
    for x in pool:
        for i, slot in enumerate(slots_F(x), start=1):
            for y in by_total.get(slot, ()):
                yield x, i, y


def level_1_pairs():
    return [(corolla(a), i, corolla(b, allow_zero=True))
            for a in range(1, 6) for i in range(1, a + 1) for b in range(0, 6)]


def sample(bounds, k, seed):
    keep = set(random.Random(seed).sample(range(sum(1 for _ in composable(bounds))), k))
    return [p for n, p in enumerate(composable(bounds)) if n in keep]


@pytest.mark.parametrize("pairs", [
    pytest.param(level_1_pairs, id="level1"),
    pytest.param(lambda: composable((2, 3, 3)), id="2-3-3"),
    pytest.param(lambda: composable((3, 2, 2)), id="3-2-2"),
    pytest.param(lambda: composable((4, 2, 2)), id="4-2-2"),
    # the full (3, 3, 2) set is 617,547 pairs
    pytest.param(lambda: sample((3, 3, 2), 5000, 35), id="3-3-2-sample"),
])
def test_the_key_decides_the_map(pairs, monkeypatch):
    n = 0
    for x, i, y in pairs():
        result, sh = compose(x, i, y)
        monkeypatch.setattr(elements, "_shuffles", {})
        fresh = elements._compose(x, i, y)
        monkeypatch.undo()
        assert fresh == (result, sh), (x, i, y)  # elements compare by identity
        assert sh.check()
        n += 1
    assert n > 0


def test_one_shape_with_other_factors_shares_the_map():
    # slot 2 of a two-corolla tree takes a one-factor y: raw order x_1, y_1
    a = compose(make(2, [corolla(2), corolla(2)], [1]), 2, make(2, [corolla(2)], []))
    b = compose(make(2, [corolla(3), corolla(4)], [2]), 2, make(2, [corolla(4)], []))
    assert a[0] is not b[0]
    assert a[1] is b[1] and elements._shuffles[(2, 1, (1, 2))] is a[1]
    assert a[1] == (2, 2, 1, {1: 1}, {1: 2})
    # a level-1 composition keys the identity of length m_x + m_y - 1
    assert compose(corolla(3), 2, corolla(2))[1] is elements._shuffles[(2, 2, (1, 2, 3, 4))]


WRITES = [
    lambda m: m.__setitem__(2, 99),
    lambda m: m.__delitem__(next(iter(m))),
    lambda m: m.update({2: 99}),
    lambda m: m.setdefault(99, 99),
    lambda m: m.pop(next(iter(m))),
    lambda m: m.popitem(),
    lambda m: m.clear(),
    lambda m: m.__ior__({2: 99}),
]


def test_a_shared_map_refuses_writes():
    # [2,2|1] and [2,3|1] composed with [1,2|1] at 1 share one map
    sh = compose(pe("[2,2|1]"), 1, pe("[1,2|1]"))[1]
    with pytest.raises(TypeError):
        sh.phi[2] = 99
    for m in (sh.phi, sh.psi):
        for write in WRITES:
            with pytest.raises(TypeError):
                write(m)
    other = compose(pe("[2,3|1]"), 1, pe("[1,2|1]"))[1]
    assert other is sh and other.phi == {2: 3} and other.psi == {1: 1, 2: 2}
    g = graft_at_slot(pe("[2|]"), 1, pe("[2,1|1]"))
    for m in (g.slot_phi, g.slot_psi):
        for write in WRITES:
            with pytest.raises(TypeError):
                write(m)
    assert (g.slot_phi, g.slot_psi) == ({2: 3}, {1: 1, 2: 2})


def test_a_shared_map_pickles_and_deep_copies_to_an_equal_read_only_map():
    sh = compose(pe("[2,2|1]"), 1, pe("[1,2|1]"))[1]
    for again in (pickle.loads(pickle.dumps(sh)), copy.deepcopy(sh)):
        assert again == sh and repr(again) == repr(sh)
        with pytest.raises(TypeError):
            again.phi[2] = 99


# In a fresh process: 12,000 level-2 compositions, made once so that their
# results and maps exist, then made again into an emptied memo under
# tracemalloc, so that only the memo entries are new.  With a private phi
# and psi dict per entry this measured 705 bytes per entry; with shared
# maps, 169.  The memo holds every pair and the table one map per shape.
FRESH = """
import gc, random, tracemalloc
from nbase import elements
from nbase.enumeration import enumerate_elements
pool = enumerate_elements(2, 4, 3)
by_total = {}
for y in pool:
    by_total.setdefault(y._total, []).append(y)
pairs = [(x, i, y) for x in pool for i, f in enumerate(x.factors, 1) for y in by_total[f]]
pairs = random.Random(35).sample(pairs, 12000)
for x, i, y in pairs:
    elements.compose(x, i, y)
memo, shuffles = len(elements._compose_cache), len(elements._shuffles)
elements._compose_cache.clear()
gc.collect()
tracemalloc.start()
for x, i, y in pairs:
    elements.compose(x, i, y)
print(tracemalloc.get_traced_memory()[0] / len(elements._compose_cache), memo, shuffles)
"""


def test_a_memo_entry_stores_no_private_map():
    src = os.path.dirname(os.path.dirname(os.path.abspath(nbase.__file__)))
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", FRESH], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    per_entry, memo, shuffles = proc.stdout.split()
    assert int(memo) >= 10_000
    assert int(shuffles) <= int(memo)
    assert float(per_entry) < 600, proc.stdout
