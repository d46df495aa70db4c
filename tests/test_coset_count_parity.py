"""Counts, `Overflow` messages and tables of coset enumeration, pinned.

Callers that read only whether a table is complete and its order
(`verify_symmetric_realization`, `nbase group order`) take
`presentations._coset_counts`, which skips the renumbered rows; it must
give the counts of `todd_coxeter`: (complete, order, live, defined,
merged).  The cases are S2-S7, every binary shape of 4-7 nodes, 20 seeded
8-node presentations, the quaternion group, Z7, and <a,b | a^3, b^3>
(infinite) at a cap of 500.  Shapes with the same adjacency edges have one
presentation, which is enumerated once.

PEAKS holds each presentation's peak live count, the least cap at which it
completes: counts are taken at that cap, and one coset less must raise the
same `Overflow` message on both paths (on the 8-node presentations, on
the order-only path; `test_coset_scan_skip` pins one on the other).  Both
paths run as outside the test suite, with check mode off; the tables and
counts are the same with it on, where every skipped scan is walked.
"""

import hashlib
import random

import pytest

from nbase import presentations
from nbase.enumeration import enumerate_elements
from nbase.errors import Overflow
from nbase.presentations import (
    Presentation,
    _coset_counts,
    symmetric_presentation,
    todd_coxeter,
    tree_presentation,
)


def digest(results):
    return hashlib.sha256(repr(results).encode()).hexdigest()


def binary_shapes(nodes):
    return [x for x in enumerate_elements(2, nodes, 2)
            if x.m == nodes and all(f.arity == 2 for f in x.factors)]


def distinct(shapes):
    return list(dict.fromkeys(tree_presentation(x)[0] for x in shapes))


GROUPS = {
    "sym": [symmetric_presentation(n) for n in range(2, 8)],
    "small": [Presentation(2, ((1,) * 4, (1, 1, -2, -2), (1, 2, 1, -2))),
              Presentation(1, ((1,) * 7,))],
    "tree4-6": [p for n in (4, 5, 6) for p in distinct(binary_shapes(n))],
    "tree7": distinct(binary_shapes(7)),
    "tree8": random.Random(30).sample(distinct(binary_shapes(8)), 20),
}
INFINITE = Presentation(2, ((1,) * 3, (2,) * 3))

# peak live count of each presentation of GROUPS, in order
PEAKS = {
    "sym": [2, 6, 24, 122, 721, 5045],
    "small": [9, 7],
    "tree4-6": [
        24, 24, 24, 121, 122, 130, 120, 144, 124, 122, 722, 720, 726, 725,
        721, 726, 744, 720, 727, 727, 728, 731, 738, 725, 720, 723, 720],
    "tree7": [
        5045, 5040, 5052, 5056, 5066, 5047, 5053, 5066, 5044, 5040, 5082, 5079,
        5054, 5073, 5056, 5044, 5053, 5056, 5145, 5064, 5075, 5080, 5041, 5059,
        5132, 5092, 5048, 5042, 5042, 5049, 5042, 5081, 5052, 5131, 5088, 5047,
        5042, 5066, 5045, 5040, 5045, 5050],
    "tree8": [
        40397, 40402, 40406, 40338, 40331, 40448, 40360, 40357, 40325, 40324,
        40325, 40333, 40403, 40398, 40443, 40334, 40515, 40325, 40427, 40375],
}

# sha256 of the list of todd_coxeter's (complete, order, live, defined,
# merged) at each peak, and of the Overflow messages one coset below it
COUNTS = {
    "sym":
        "47277d549e90ca138927e7296fd237e19ae370f981f6eb1e5cae597b52d76744",
    "small":
        "83de3697979c04ee109e84df6b618ae2885abbe4ef45647712b77ee88721a158",
    "tree4-6":
        "52757a015860d968ff57ae4ccaa10b5738d93f447d0094d1784119eb999c4709",
    "tree7":
        "a11e6407fd69d864b53d1959ffebb757aa074e28b9d3dcf08fa9561f171a7d01",
    "tree8":
        "c47a0822e92f8851856cc1bac3d085966de604461533f0432f529f5e833d5137",
}
MESSAGES = {
    "sym":
        "3e9801210cbbe62cc72299a542d970f8b937580447fc3454e1a8c232e6f0d2c8",
    "small":
        "cd5be788ad277c6f032389656c7d8d66dd1e8e69381b097070b98a582116c76d",
    "tree4-6":
        "4877d650224c3692a08d4a18df8a70d206bb683ddc7f84aec9e2ff4b02852da5",
    "tree7":
        "fa5ee70dfce937122e1750a91a3c5af37be136b76fc7dd5f32df56eb20e1bc0f",
    "tree8":
        "c5dd615827bf58d00d140df2feb081ea7c47cffba239ac8525e9954c1c6f1db3",
}


def counts(ct):
    return ct.complete, ct.order, ct.live, ct.defined, ct.merged


def overflow_message(enumerate_, pres, cap):
    with pytest.raises(Overflow) as exc:
        enumerate_(pres, max_cosets=cap)
    return str(exc.value)


@pytest.fixture(autouse=True)
def unchecked(monkeypatch):
    monkeypatch.setattr(presentations, "_CHECK", False)


def test_group_sizes():
    assert {name: len(group) for name, group in GROUPS.items()} == {
        "sym": 6, "small": 2, "tree4-6": 27, "tree7": 42, "tree8": 20}
    assert {name: len(peaks) for name, peaks in PEAKS.items()} == {
        name: len(group) for name, group in GROUPS.items()}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_counts_at_the_peak(name):
    found = []
    for p, peak in zip(GROUPS[name], PEAKS[name]):
        ct, oc = todd_coxeter(p, max_cosets=peak), _coset_counts(p, max_cosets=peak)
        assert oc.rows is None and counts(oc) == counts(ct)
        found.append(counts(ct))
    assert all(c[0] and c[1] == c[2] for c in found)
    assert digest(found) == COUNTS[name]


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_overflow_one_below_the_peak(name):
    paths = (_coset_counts,) if name == "tree8" else (todd_coxeter, _coset_counts)
    for enumerate_ in paths:
        found = [overflow_message(enumerate_, p, peak - 1)
                 for p, peak in zip(GROUPS[name], PEAKS[name])]
        assert digest(found) == MESSAGES[name]


def test_infinite_group_overflows():
    message = "coset cap 500 exceeded: defined 500, live 500, merged 0"
    for enumerate_ in (todd_coxeter, _coset_counts):
        assert overflow_message(enumerate_, INFINITE, 500) == message


@pytest.mark.parametrize("name", ["sym", "small", "tree4-6"])
def test_tables_with_check_off_and_on(monkeypatch, name):
    tables, found = [], []
    for check in (False, True):
        monkeypatch.setattr(presentations, "_CHECK", check)
        tables.append([todd_coxeter(p) for p in GROUPS[name]])
        found.append([_coset_counts(p) for p in GROUPS[name]])
    assert tables[0] == tables[1]
    assert found[0] == found[1] == [ct._replace(rows=None) for ct in tables[0]]
