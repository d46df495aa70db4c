"""The permutation code of the group layer and of two-morphism enumeration
gives the results pinned here.

Each digest is the sha256 of the ``repr`` of a list of results:
- the sigmas of ``two_morphisms_between(a, b)`` for every ordered pair of
  ``enumerate_elements(2, 5, 2)`` (514 elements, 908,951 sigmas);
- ``schreier_sims_order`` on 300 seeded random generating sets, n = 1..10
  with 0-4 generators each;
- ``verify_symmetric_realization`` on every binary tree of up to 6 nodes.
"""

import hashlib
import random

from nbase.enumeration import enumerate_elements
from nbase.morphisms import two_morphisms_between
from nbase.presentations import schreier_sims_order, verify_symmetric_realization


def digest(results):
    return hashlib.sha256(repr(results).encode()).hexdigest()


def test_two_morphism_sigmas():
    pool = enumerate_elements(2, 5, 2)
    sigmas = [[m.sigma for m in two_morphisms_between(a, b)] for a in pool for b in pool]
    assert len(pool) == 514 and sum(map(len, sigmas)) == 908_951
    assert digest(sigmas) == "b0273bfcd6d8306065ccef1219f7639a9ada6eaa751b5a940fbf4508cc7f9653"


def test_schreier_sims_orders():
    rng = random.Random(29)
    orders = []
    for _ in range(300):
        n = rng.randint(1, 10)
        gens = []
        for _ in range(rng.randint(0, 4)):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            gens.append(tuple(perm))
        orders.append(schreier_sims_order(gens, n))
    assert digest(orders) == "4b3d2a43237745f369f938be95f8e09e0ae351c297fd0021e3ef16559be338ca"


def test_realization_reports():
    trees = [x for x in enumerate_elements(2, 6, 2) if all(f.arity == 2 for f in x.factors)]
    assert len(trees) == 196
    assert digest([verify_symmetric_realization(x) for x in trees]) == (
        "9b31a30a4bc7319e795dee6dc71d627637d4ece1e57140070f36b6528011c222")
