"""Independent planar-tree oracle for level-2 composition.

Implements node substitution on explicit tree structures with its own
bookkeeping (no use of the package's splice, shuffle, or sort machinery):
an element literal is replayed into a tree via a slot list, substitution
splices child subtrees onto the replacement tree's leaves, and the result
is read back off in preorder.  Node tags survive the substitution, so the
oracle also produces the expected position maps.
"""


def build_tree(arities, indices, tag_prefix):
    root = {"arity": arities[0], "children": [None] * arities[0],
            "tag": (tag_prefix, 1)}
    slots = [(root, p) for p in range(arities[0])]
    for t, (a, idx) in enumerate(zip(arities[1:], indices), start=2):
        node = {"arity": a, "children": [None] * a, "tag": (tag_prefix, t)}
        parent, prong = slots[idx - 1]
        parent["children"][prong] = node
        slots[idx - 1:idx] = [(node, p) for p in range(a)]
    return root


def preorder(node):
    out = [node]
    for child in node["children"]:
        if child is not None:
            out.extend(preorder(child))
    return out


def leaves_in_order(node):
    out = []
    for p, child in enumerate(node["children"]):
        if child is None:
            out.append((node, p))
        else:
            out.extend(leaves_in_order(child))
    return out


def serialize(root):
    """(arities, indices) of the canonical preorder literal."""
    arities = []
    indices = []
    slots = []

    def place(node, ambient):
        arities.append(node["arity"])
        new = [(node, p) for p in range(node["arity"])]
        if ambient is None:
            slots.extend(new)
        else:
            indices.append(ambient + 1)
            slots[ambient:ambient + 1] = new
        for p, child in enumerate(node["children"]):
            if child is not None:
                place(child, slots.index((node, p)))

    place(root, None)
    return arities, indices


def oracle_compose(x_arities, x_indices, i, y_arities, y_indices):
    """Substitute tree y at node i of tree x.

    Returns (arities, indices, phi, psi): the canonical serialization of
    the substituted tree plus the final preorder position of every x-node
    (except i) and every y-node.
    """
    tx = build_tree(x_arities, x_indices, "x")
    ty = build_tree(y_arities, y_indices, "y")
    nodes = preorder(tx)
    target = nodes[i - 1]
    assert target["arity"] == len(leaves_in_order(ty)), "not composable"
    for p, (node, prong) in enumerate(leaves_in_order(ty)):
        node["children"][prong] = target["children"][p]
    if i == 1:
        new_root = ty
    else:
        parent = next(n for n in nodes if target in n["children"])
        parent["children"][parent["children"].index(target)] = ty
        new_root = tx
    arities, indices = serialize(new_root)
    phi = {}
    psi = {}
    for pos, node in enumerate(preorder(new_root), start=1):
        prefix, t = node["tag"]
        if prefix == "x":
            phi[t] = pos
        else:
            psi[t] = pos
    return arities, indices, phi, psi


def oracle_apply_one(arities, indices, node_perms):
    """Permute the prongs of every node of a tree.

    The child or free prong at prong p of node t moves to prong
    node_perms[t-1][p-1].  Returns (arities, indices, leaf_perm,
    node_relabel): the canonical serialization of the permuted tree, the
    new left-to-right position of every old leaf, and the new preorder
    position of every node.
    """
    root = build_tree(arities, indices, "s")
    old_leaves = [(node["tag"], p) for node, p in leaves_in_order(root)]
    came_from = {}
    for node in preorder(root):
        perm = node_perms[node["tag"][1] - 1]
        moved = [None] * node["arity"]
        for p, child in enumerate(node["children"]):
            moved[perm[p] - 1] = child
            came_from[(node["tag"], perm[p] - 1)] = (node["tag"], p)
        node["children"] = moved
    new_arities, new_indices = serialize(root)
    node_relabel = [0] * len(arities)
    for pos, node in enumerate(preorder(root), start=1):
        node_relabel[node["tag"][1] - 1] = pos
    leaf_perm = [0] * len(old_leaves)
    for pos, (node, p) in enumerate(leaves_in_order(root), start=1):
        leaf_perm[old_leaves.index(came_from[(node["tag"], p)])] = pos
    return new_arities, new_indices, leaf_perm, node_relabel


def random_tree(rng, nodes, max_arity):
    """(arities, indices) of a seeded random tree, grafted in random order."""
    arities = [rng.randint(1, max_arity) for _ in range(nodes)]
    prongs = arities[0]
    indices = []
    for a in arities[1:]:
        indices.append(rng.randint(1, prongs))
        prongs += a - 1
    return serialize(build_tree(arities, indices, "r"))
