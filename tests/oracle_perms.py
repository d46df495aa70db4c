"""Independent oracle for the order of a permutation group.

Lists every element: a breadth-first closure of the identity under left
multiplication by the generators.  It shares no code with the package's
Schreier-Sims, and costs n! tuples for the full group, so it serves only
small degrees.  Permutations are tuples over 1..n: p[i - 1] is the image
of i.
"""


def perm_mul(a, b):
    """Apply b, then a."""
    return tuple(a[b[i] - 1] for i in range(len(a)))


def closure_order(gens, n):
    identity = tuple(range(1, n + 1))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = perm_mul(g, p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(seen)
