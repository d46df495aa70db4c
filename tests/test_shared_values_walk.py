"""Every value the process tables share is immutable.

After a seeded workload in a fresh process, a walk from the intern table,
the kept child-list rows, the compose memo and the shuffle maps reaches
only ints, None, tuples (NamedTuples included), elements and read-only
maps.  Equality of elements is identity, so a mutable value reachable from
a table would let one caller change what every other caller holds.

``enumeration._enumerate``'s ``functools.lru_cache`` does not expose its
entries, so its pools are left out of the walk.
"""

import json
import os
import subprocess
import sys

import nbase

WORKLOAD = """
import json, random
from nbase import elements
from nbase.elements import PlainElement, _ReadOnly, decompose_head, graft_at_slot
from nbase.enumeration import enumerate_elements
from nbase.ordinals import encode, eval_phin
from nbase.presentations import edge_structure, verify_symmetric_realization
from nbase.selftest import random_normal_form, run_suite
from nbase.trees import to_tree

for name in ("oracle", "confluence", "morphisms", "ordinals", "groups"):
    run_suite(name, seed=39)
rng = random.Random(39)
for n in (2, 3, 4):
    for _ in range(40):
        beta = random_normal_form(rng, n, 3)
        if beta.terms:
            eval_phin(encode(beta, n))
for z in enumerate_elements(2, 4, 2)[:300]:
    to_tree(z), to_tree(z), decompose_head(z)  # a second read keeps the lists
    graft_at_slot(z, 1, z)
for z in enumerate_elements(2, 5, 2):
    if all(f.arity == 2 for f in z.factors):  # binary trees
        edge_structure(z)
        verify_symmetric_realization(z)

seen, bad, counts = set(), [], {}
tables = [elements._interned, elements._rows, elements._compose_cache, elements._shuffles]
stack = list(tables)
while stack:
    v = stack.pop()
    if id(v) in seen:
        continue
    seen.add(id(v))
    if any(v is t for t in tables):
        stack.extend(v.keys())
        stack.extend(v.values())
        continue
    kind = type(v)
    if v is None or kind is int or kind is bool:
        counts["int/None"] = counts.get("int/None", 0) + 1
    elif kind is PlainElement:
        counts["element"] = counts.get("element", 0) + 1
        stack.extend(getattr(v, s) for s in PlainElement.__slots__)
    elif kind is _ReadOnly:
        counts["read-only map"] = counts.get("read-only map", 0) + 1
        stack.extend(v.keys())
        stack.extend(v.values())
    elif isinstance(v, tuple) and (kind is tuple or hasattr(kind, "_fields")):
        name = "tuple" if kind is tuple else "NamedTuple"
        counts[name] = counts.get(name, 0) + 1
        stack.extend(v)
    else:
        bad.append(repr(kind))
print(json.dumps({"sizes": [len(t) for t in tables], "counts": counts,
                  "bad": sorted(set(bad))}))
"""


def test_values_reachable_from_the_process_tables_are_immutable():
    src = os.path.dirname(os.path.dirname(os.path.abspath(nbase.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", WORKLOAD],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    assert found["bad"] == []
    # the workload filled every table, and the walk reached each kind
    assert all(found["sizes"]), found["sizes"]
    assert set(found["counts"]) == {"int/None", "element", "read-only map",
                                    "tuple", "NamedTuple"}, found["counts"]
