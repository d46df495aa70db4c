"""Command-line front end.

Machine-parsable output by default; exit codes: 0 success, 1 domain error
(the message names the error variant), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import ordinals
from .elements import (
    arity_m,
    compose,
    decompose_head,
    normalize,
    slots_F,
    total_G,
)
from .enumeration import count_binary, enumerate_elements
from .errors import NBaseError
from .grammar import element_to_json, format_element, parse_element
from .morphisms import (
    apply_one,
    apply_two,
    complete_square,
    identity_two,
    induced_two_on_composition,
)
from .presentations import (
    symmetric_presentation,
    todd_coxeter,
    tree_presentation,
    verify_symmetric_realization,
)
from .render import render
from .selftest import SUITES, run_suite


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError("expected a positive integer, got %r"
                                         % text)
    return value


def _int_list(value):
    return isinstance(value, list) and all(type(v) is int for v in value)


def _json_arg(key):
    """An argparse type: a JSON object whose `key` holds a list of ints, or
    a list of int lists for node_perms; the type returns that list."""
    nested = key == "node_perms"

    def parse(text):
        try:
            value = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise argparse.ArgumentTypeError("invalid JSON: %s" % exc)
        if not isinstance(value, dict) or key not in value:
            raise argparse.ArgumentTypeError(
                "expected a JSON object with key %r" % key)
        items = value[key]
        if not (isinstance(items, list) and all(map(_int_list, items))
                if nested else _int_list(items)):
            raise argparse.ArgumentTypeError(
                "%r must hold a list of %s" % (key, "int lists" if nested else "ints"))
        return items
    return parse


class _LeafParser(argparse.ArgumentParser):
    """A subcommand parser that reports unrecognized arguments with its own
    usage line, instead of leaving them to the top-level parser."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error("unrecognized arguments: %s" % " ".join(extra))
        return namespace, extra


def _parser():
    p = argparse.ArgumentParser(prog="nbase", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=_LeafParser)

    def with_level(sp, as_json=True, pretty=False):
        sp.add_argument("--level", type=int, default=None,
                        help="element level (inferred from nesting if omitted)")
        if as_json:
            sp.add_argument("--json", action="store_true", help="JSON output")
        if pretty:
            sp.add_argument("--pretty", action="store_true",
                            help="append a drawing (levels <= 3)")

    sp = sub.add_parser("validate", help="check an element literal")
    with_level(sp, pretty=True)
    sp.add_argument("literal")

    sp = sub.add_parser("compose", help="substitute y into slot i of x")
    with_level(sp, pretty=True)
    sp.add_argument("x")
    sp.add_argument("i", type=int)
    sp.add_argument("y")

    sp = sub.add_parser("shuffle", help="position maps of a composition")
    with_level(sp)
    sp.add_argument("x")
    sp.add_argument("i", type=int)
    sp.add_argument("y")

    sp = sub.add_parser("normalize", help="sort a raw application sequence")
    with_level(sp)
    sp.add_argument("literal")

    sp = sub.add_parser("fg", help="print m, the slot sequence, and the total")
    with_level(sp)
    sp.add_argument("literal")

    sp = sub.add_parser("head", help="head decomposition")
    with_level(sp)
    sp.add_argument("literal")

    sp = sub.add_parser("ord", help="ordinal operations")
    osub = sp.add_subparsers(dest="ord_command", required=True)
    oe = osub.add_parser("eval")
    oe.add_argument("--level", type=int, default=None)
    oe.add_argument("literal")
    oc = osub.add_parser("encode")
    oc.add_argument("--level", type=int, required=True)
    oc.add_argument("ordinal")
    om = osub.add_parser("cmp")
    om.add_argument("a")
    om.add_argument("b")
    oa = osub.add_parser("add")
    oa.add_argument("a")
    oa.add_argument("b")

    sp = sub.add_parser("group", help="presentations and coset enumeration")
    gsub = sp.add_subparsers(dest="group_command", required=True)
    for name in ("present", "order", "verify"):
        gp = gsub.add_parser(name)
        source = gp
        if name != "verify":
            source = gp.add_mutually_exclusive_group(required=True)
            source.add_argument("--sym", type=int, default=None,
                                help="symmetric presentation on n letters")
        source.add_argument("--tree", default=None, required=name == "verify",
                            help="binary level-2 element literal")
        if name == "present":
            gp.add_argument("--gap", action="store_true",
                            help="print relators as plain words")
        else:
            gp.add_argument("--max-cosets", type=_positive_int,
                            default=100_000,
                            help="cap on live cosets (default 100000, enough "
                                 "for every tree up to 8 nodes); verify takes "
                                 "the generated order from Schreier-Sims, "
                                 "which needs no cap")

    sp = sub.add_parser("enum", help="enumerate elements within bounds")
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--max-factors", type=int, default=3)
    sp.add_argument("--max-arity", type=int, default=3)
    sp.add_argument("--count-only", action="store_true")
    sp.add_argument("--binary", type=int, default=None, metavar="K",
                    help="count binary elements with K factors instead")

    sp = sub.add_parser("mor", help="level-2 morphism operations")
    msub = sp.add_subparsers(dest="mor_command", required=True)
    m1 = msub.add_parser("apply1")
    m1.add_argument("literal")
    perms = _json_arg("node_perms")
    sigma = _json_arg("sigma")
    m1.add_argument("perms", type=perms,
                    help='JSON like {"node_perms": [[2,1],[1,2]]}')
    m2 = msub.add_parser("apply2")
    m2.add_argument("literal")
    m2.add_argument("sigma", type=sigma, help='JSON like {"sigma": [2,1]}')
    mq = msub.add_parser("square")
    mq.add_argument("literal")
    mq.add_argument("perms", type=perms)
    mq.add_argument("sigma", type=sigma)
    mi = msub.add_parser("induce")
    mi.add_argument("x")
    mi.add_argument("i", type=int)
    mi.add_argument("y")
    mi.add_argument("--sigma-f", type=sigma, default=None)
    mi.add_argument("--sigma-g", type=sigma, default=None)

    sp = sub.add_parser("render", help="draw an element")
    with_level(sp, as_json=False)
    sp.add_argument("literal")
    sp.add_argument("--format", choices=("ascii", "dot"), default="ascii")

    sp = sub.add_parser("selftest", help="run a property battery")
    sp.add_argument("suite", choices=sorted(SUITES) + ["all"])
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--size", choices=("small", "medium"), default="small")
    sp.add_argument("--jobs", type=int, default=1,
                    help="run independent suites in parallel (all only)")
    return p


def _emit_element(x, args):
    if args.json:
        print(json.dumps(element_to_json(x)))
    else:
        print(format_element(x))
    if args.pretty and x.level <= 3:
        print(render(x, "ascii"))


def _shuffle_json(sh):
    return {"i": sh.i,
            "phi": {str(k): v for k, v in sorted(sh.phi.items())},
            "psi": {str(k): v for k, v in sorted(sh.psi.items())}}


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return _dispatch(args)
    except NBaseError as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1


def _dispatch(args):
    cmd = args.command

    if cmd == "validate":
        x = parse_element(args.literal, level=args.level)
        _emit_element(x, args)
        return 0

    if cmd in ("compose", "shuffle"):
        x = parse_element(args.x, level=args.level)
        y = parse_element(args.y, level=args.level)
        result, sh = compose(x, args.i, y)
        if cmd == "compose":
            if args.json:
                print(json.dumps({"result": element_to_json(result),
                                  "shuffle": _shuffle_json(sh)}))
            else:
                _emit_element(result, args)
        else:
            if args.json:
                print(json.dumps(_shuffle_json(sh)))
            else:
                print("phi " + " ".join("%d->%d" % kv for kv in sorted(sh.phi.items())))
                print("psi " + " ".join("%d->%d" % kv for kv in sorted(sh.psi.items())))
        return 0

    if cmd == "normalize":
        g = parse_element(args.literal, level=args.level, raw=True)
        e, perm = normalize(g)
        if args.json:
            print(json.dumps({"element": element_to_json(e), "positions": list(perm)}))
        else:
            print(format_element(e))
            print("positions " + " ".join("%d->%d" % (i + 1, p)
                                          for i, p in enumerate(perm)))
        return 0

    if cmd == "fg":
        x = parse_element(args.literal, level=args.level)
        if args.json:
            print(json.dumps({"m": arity_m(x),
                              "F": [format_element(f) for f in slots_F(x)],
                              "G": format_element(total_G(x))}))
        else:
            print("m %d" % arity_m(x))
            print("F " + " ".join(format_element(f) for f in slots_F(x)))
            print("G " + format_element(total_G(x)))
        return 0

    if cmd == "head":
        x = parse_element(args.literal, level=args.level)
        hf = decompose_head(x)
        if args.json:
            print(json.dumps({
                "head": format_element(hf.head),
                "attachments": [{"slot": a.slot,
                                 "element": format_element(a.element)}
                                for a in hf.attachments]}))
        else:
            print("head " + format_element(hf.head))
            for a in hf.attachments:
                print("slot %d %s" % (a.slot, format_element(a.element)))
        return 0

    if cmd == "ord":
        return _dispatch_ord(args)
    if cmd == "group":
        return _dispatch_group(args)

    if cmd == "enum":
        if args.binary is not None:
            print(count_binary(args.binary))
            return 0
        elems = enumerate_elements(args.level, args.max_factors, args.max_arity)
        if args.count_only:
            print(len(elems))
        else:
            for e in elems:
                print(format_element(e))
        return 0

    if cmd == "mor":
        return _dispatch_mor(args)

    if cmd == "render":
        x = parse_element(args.literal, level=args.level)
        print(render(x, args.format))
        return 0

    if cmd == "selftest":
        names = sorted(SUITES) if args.suite == "all" else [args.suite]
        failed = 0
        workers = _worker_count(args.jobs, len(names))
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers) as pool:
                reports = list(pool.map(_run_one, [(n, args.seed, args.size)
                                                   for n in names]))
        else:
            reports = [run_suite(n, args.seed, args.size) for n in names]
        for rep in reports:
            print(rep.summary())
            failed += rep.failed
        return 0 if failed == 0 else 1

    raise AssertionError("unhandled command %r" % cmd)


def _worker_count(jobs, suites):
    """Processes for `selftest --jobs`: no more than suites or CPUs."""
    return min(jobs, suites, os.cpu_count() or 1)


def _run_one(job):
    name, seed, size = job
    return run_suite(name, seed, size)


def _dispatch_ord(args):
    if args.ord_command == "eval":
        x = parse_element(args.literal, level=args.level)
        print(ordinals.format_ordinal(ordinals.eval_phin(x)))
        return 0
    if args.ord_command == "encode":
        beta = ordinals.parse_ordinal(args.ordinal)
        z = ordinals.encode(beta, args.level)
        print(format_element(z))
        return 0
    if args.ord_command == "cmp":
        c = ordinals.cmp(ordinals.parse_ordinal(args.a), ordinals.parse_ordinal(args.b))
        print({-1: "LT", 0: "EQ", 1: "GT"}[c])
        return 0
    if args.ord_command == "add":
        s = ordinals.add(ordinals.parse_ordinal(args.a), ordinals.parse_ordinal(args.b))
        print(ordinals.format_ordinal(s))
        return 0
    raise AssertionError


def _group_presentation(args):
    if args.sym is not None:
        return symmetric_presentation(args.sym), None
    x = parse_element(args.tree, level=2)
    pres, es = tree_presentation(x)
    return pres, es


def _dispatch_group(args):
    if args.group_command == "present":
        pres, _es = _group_presentation(args)
        if args.gap:
            for w in pres.gap_words():
                print(w)
        else:
            print(pres)
        return 0
    if args.group_command == "order":
        pres, _es = _group_presentation(args)
        ct = todd_coxeter(pres, max_cosets=args.max_cosets)
        print(ct.order if ct.complete else "incomplete")
        return 0
    if args.group_command == "verify":
        x = parse_element(args.tree, level=2)
        rep = verify_symmetric_realization(x, max_cosets=args.max_cosets)
        print("nodes %d edges %d relators %s generated %d enumerated %d iso %s"
              % (rep.nodes, rep.edges, rep.relators_hold, rep.generated_order,
                 rep.enumerated_order, rep.isomorphic))
        return 0 if rep.isomorphic else 1
    raise AssertionError


def _dispatch_mor(args):
    if args.mor_command == "apply1":
        x = parse_element(args.literal, level=2)
        f = apply_one(x, args.perms)
        print(json.dumps({"target": format_element(f.target),
                          "leaf_perm": list(f.leaf_perm),
                          "node_relabel": list(f.node_relabel)}))
        return 0
    if args.mor_command == "apply2":
        x = parse_element(args.literal, level=2)
        mor = apply_two(x, args.sigma)
        if mor is None:
            print(json.dumps({"morphism": None}))
        else:
            print(json.dumps({"target": format_element(mor.target),
                              "sigma": list(mor.sigma)}))
        return 0
    if args.mor_command == "square":
        x = parse_element(args.literal, level=2)
        f = apply_one(x, args.perms)
        g = apply_two(x, args.sigma)
        if g is None:
            print(json.dumps({"square": None}))
            return 1
        sq = complete_square(f, g)
        print(json.dumps({"opposite": format_element(sq.opposite),
                          "commutes": sq.commutes()}))
        return 0
    if args.mor_command == "induce":
        x = parse_element(args.x, level=2)
        y = parse_element(args.y, level=2)
        f = apply_two(x, args.sigma_f) if args.sigma_f is not None \
            else identity_two(x)
        g = apply_two(y, args.sigma_g) if args.sigma_g is not None \
            else identity_two(y)
        h = induced_two_on_composition(x, args.i, y, f, g)
        print(json.dumps({"source": format_element(h.source),
                          "target": format_element(h.target),
                          "sigma": list(h.sigma)}))
        return 0
    raise AssertionError


if __name__ == "__main__":
    sys.exit(main())
