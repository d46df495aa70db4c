"""Command-line front end.

Machine-parsable output by default; exit codes: 0 success, 1 domain error
(the message names the error variant), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .elements import arity_m, compose, decompose_head, normalize, slots_F, total_G
from .errors import NBaseError
from .grammar import element_to_json, format_element, parse_element


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


# -- handlers: each takes the parsed arguments, prints its result and
# returns the exit code (None for 0); each imports the modules it needs

def _emit_element(x, args):
    if args.json:
        print(json.dumps(element_to_json(x)))
    else:
        print(format_element(x))
    if args.pretty and x.level <= 3:
        from .render import render
        print(render(x, "ascii"))


def _shuffle_json(sh):
    return {"i": sh.i,
            "phi": {str(k): v for k, v in sorted(sh.phi.items())},
            "psi": {str(k): v for k, v in sorted(sh.psi.items())}}


def _validate(args):
    _emit_element(parse_element(args.literal, level=args.level), args)


def _parse_and_compose(args):
    x = parse_element(args.x, level=args.level)
    y = parse_element(args.y, level=args.level)
    return compose(x, args.i, y)


def _compose(args):
    result, sh = _parse_and_compose(args)
    if args.json:
        print(json.dumps({"result": element_to_json(result),
                          "shuffle": _shuffle_json(sh)}))
    else:
        _emit_element(result, args)


def _shuffle(args):
    sh = _parse_and_compose(args)[1]
    if args.json:
        print(json.dumps(_shuffle_json(sh)))
    else:
        print("phi " + " ".join("%d->%d" % kv for kv in sorted(sh.phi.items())))
        print("psi " + " ".join("%d->%d" % kv for kv in sorted(sh.psi.items())))


def _normalize(args):
    e, perm = normalize(parse_element(args.literal, level=args.level, raw=True))
    if args.json:
        print(json.dumps({"element": element_to_json(e), "positions": list(perm)}))
    else:
        print(format_element(e))
        print("positions " + " ".join("%d->%d" % (i + 1, p)
                                      for i, p in enumerate(perm)))


def _fg(args):
    x = parse_element(args.literal, level=args.level)
    if args.json:
        print(json.dumps({"m": arity_m(x),
                          "F": [format_element(f) for f in slots_F(x)],
                          "G": format_element(total_G(x))}))
    else:
        print("m %d" % arity_m(x))
        print("F " + " ".join(format_element(f) for f in slots_F(x)))
        print("G " + format_element(total_G(x)))


def _head(args):
    hf = decompose_head(parse_element(args.literal, level=args.level))
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


def _ord_eval(args):
    from .ordinals import eval_phin, format_ordinal
    x = parse_element(args.literal, level=args.level)
    print(format_ordinal(eval_phin(x)))


def _ord_encode(args):
    from .ordinals import encode, parse_ordinal
    print(format_element(encode(parse_ordinal(args.ordinal), args.level)))


def _ord_cmp(args):
    from .ordinals import cmp, parse_ordinal
    c = cmp(parse_ordinal(args.a), parse_ordinal(args.b))
    print({-1: "LT", 0: "EQ", 1: "GT"}[c])


def _ord_add(args):
    from .ordinals import add, format_ordinal, parse_ordinal
    print(format_ordinal(add(parse_ordinal(args.a), parse_ordinal(args.b))))


def _group_presentation(args):
    from .presentations import symmetric_presentation, tree_presentation
    if args.sym is not None:
        return symmetric_presentation(args.sym)
    return tree_presentation(parse_element(args.tree, level=2))[0]


def _group_present(args):
    pres = _group_presentation(args)
    if args.gap:
        for w in pres.gap_words():
            print(w)
    else:
        print(pres)


def _group_order(args):
    from .presentations import _coset_counts
    print(_coset_counts(_group_presentation(args), max_cosets=args.max_cosets).order)


def _group_verify(args):
    from .presentations import verify_symmetric_realization
    x = parse_element(args.tree, level=2)
    rep = verify_symmetric_realization(x, max_cosets=args.max_cosets)
    print("nodes %d edges %d relators %s generated %d enumerated %d iso %s"
          % (rep.nodes, rep.edges, rep.relators_hold, rep.generated_order,
             rep.enumerated_order, rep.isomorphic))
    return 0 if rep.isomorphic else 1


def _enum(args):
    from .enumeration import _enumerate, count_binary, enumerate_elements
    if args.binary is not None:
        print(count_binary(args.binary))
    elif args.count_only:  # the pool enumerate_elements sorts, unsorted
        print(len(_enumerate(args.level, args.max_factors, args.max_arity, 1)))
    else:
        for e in enumerate_elements(args.level, args.max_factors, args.max_arity):
            print(format_element(e))


def _mor_apply1(args):
    from .morphisms import apply_one
    f = apply_one(parse_element(args.literal, level=2), args.perms)
    print(json.dumps({"target": format_element(f.target),
                      "leaf_perm": list(f.leaf_perm),
                      "node_relabel": list(f.node_relabel)}))


def _mor_apply2(args):
    from .morphisms import apply_two
    mor = apply_two(parse_element(args.literal, level=2), args.sigma)
    if mor is None:
        print(json.dumps({"morphism": None}))
    else:
        print(json.dumps({"target": format_element(mor.target),
                          "sigma": list(mor.sigma)}))


def _mor_square(args):
    from .morphisms import apply_one, apply_two, complete_square
    x = parse_element(args.literal, level=2)
    f = apply_one(x, args.perms)
    g = apply_two(x, args.sigma)
    if g is None:
        print(json.dumps({"square": None}))
        return 1
    sq = complete_square(f, g)
    print(json.dumps({"opposite": format_element(sq.opposite),
                      "commutes": sq.commutes()}))


def _mor_induce(args):
    from .morphisms import apply_two, identity_two, induced_two_on_composition
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


def _render(args):
    from .render import render
    print(render(parse_element(args.literal, level=args.level), args.format))


def _selftest(args):
    from .selftest import SUITES
    jobs = [(name, args.seed, args.size)
            for name in (sorted(SUITES) if args.suite == "all" else [args.suite])]
    workers = _worker_count(args.jobs, len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_run_one, jobs))
    else:
        reports = list(map(_run_one, jobs))
    for rep in reports:
        print(rep.summary())
    return 0 if sum(rep.failed for rep in reports) == 0 else 1


def _worker_count(jobs, suites):
    """Processes for `selftest --jobs`: no more than suites or CPUs."""
    return min(jobs, suites, os.cpu_count() or 1)


def _run_one(job):
    from .selftest import run_suite
    return run_suite(*job)


# -- the subcommand table --------------------------------------------------

def _arg(name, **kw):
    return name, kw


def _selftest_arguments():
    from .selftest import SUITES
    return (_arg("suite", choices=sorted(SUITES) + ["all"]),
            _arg("--seed", type=int, default=0),
            _arg("--size", choices=("small", "medium"), default="small"),
            _arg("--jobs", type=int, default=1,
                 help="run independent suites in parallel (all only)"))


# the options a row takes by name, before its own arguments
_FLAGS = {
    "--level": dict(type=int, default=None,
                    help="element level (inferred from nesting if omitted)"),
    "--json": dict(action="store_true", help="JSON output"),
    "--pretty": dict(action="store_true", help="append a drawing (levels <= 3)"),
}
_ELEMENT = ("--level", "--json")
_LITERAL = (_arg("literal"),)
_XIY = (_arg("x"), _arg("i", type=int), _arg("y"))
_PERMS = _json_arg("node_perms")
_SIGMA = _json_arg("sigma")
_TREE = "binary level-2 element literal"
_SYM_OR_TREE = (  # a tuple of arguments: exactly one of them is required
    _arg("--sym", type=int, default=None, help="symmetric presentation on n letters"),
    _arg("--tree", default=None, help=_TREE))
_MAX_COSETS = _arg("--max-cosets", type=_positive_int, default=100_000,
                   help="cap on live cosets (default 100000, enough for every "
                        "tree up to 8 nodes); verify takes the generated order "
                        "from Schreier-Sims, which needs no cap")

# A row is (name, help, flags, arguments, handler).  The arguments are
# (name, add_argument keywords) pairs, or a function that returns them; the
# handler of a row with subcommands is the tuple of their rows.
_COMMANDS = (
    ("validate", "check an element literal", _ELEMENT + ("--pretty",),
     _LITERAL, _validate),
    ("compose", "substitute y into slot i of x", _ELEMENT + ("--pretty",),
     _XIY, _compose),
    ("shuffle", "position maps of a composition", _ELEMENT, _XIY, _shuffle),
    ("normalize", "sort a raw application sequence", _ELEMENT, _LITERAL,
     _normalize),
    ("fg", "print m, the slot sequence, and the total", _ELEMENT, _LITERAL, _fg),
    ("head", "head decomposition", _ELEMENT, _LITERAL, _head),
    ("ord", "ordinal operations", (), (), (
        ("eval", None, (), (_arg("--level", type=int, default=None),) + _LITERAL,
         _ord_eval),
        ("encode", None, (), (_arg("--level", type=int, required=True),
                              _arg("ordinal")), _ord_encode),
        ("cmp", None, (), (_arg("a"), _arg("b")), _ord_cmp),
        ("add", None, (), (_arg("a"), _arg("b")), _ord_add))),
    ("group", "presentations and coset enumeration", (), (), (
        ("present", None, (), (_SYM_OR_TREE, _arg(
            "--gap", action="store_true", help="print relators as plain words")),
         _group_present),
        ("order", None, (), (_SYM_OR_TREE, _MAX_COSETS), _group_order),
        ("verify", None, (), (_arg("--tree", default=None, required=True,
                                    help=_TREE), _MAX_COSETS), _group_verify))),
    ("enum", "enumerate elements within bounds", (), (
        _arg("--level", type=int, required=True),
        _arg("--max-factors", type=int, default=3),
        _arg("--max-arity", type=int, default=3),
        _arg("--count-only", action="store_true"),
        _arg("--binary", type=int, default=None, metavar="K",
             help="count binary elements with K factors instead")), _enum),
    ("mor", "level-2 morphism operations", (), (), (
        ("apply1", None, (), _LITERAL + (_arg(
            "perms", type=_PERMS, help='JSON like {"node_perms": [[2,1],[1,2]]}'),),
         _mor_apply1),
        ("apply2", None, (), _LITERAL + (_arg(
            "sigma", type=_SIGMA, help='JSON like {"sigma": [2,1]}'),), _mor_apply2),
        ("square", None, (), _LITERAL + (_arg("perms", type=_PERMS),
                                         _arg("sigma", type=_SIGMA)), _mor_square),
        ("induce", None, (), _XIY + (_arg("--sigma-f", type=_SIGMA, default=None),
                                     _arg("--sigma-g", type=_SIGMA, default=None)),
         _mor_induce))),
    ("render", "draw an element", ("--level",), _LITERAL + (
        _arg("--format", choices=("ascii", "dot"), default="ascii"),), _render),
    ("selftest", "run a property battery", (), _selftest_arguments, _selftest),
)


def _add_rows(parser, dest, rows, argv):
    """Give parser one subcommand per row.  When argv[0] names a row, only
    that row is built (and so on down its subcommands); otherwise, as for
    -h or a usage error, every row is, so help and errors list them all."""
    sub = parser.add_subparsers(dest=dest, required=True, parser_class=_LeafParser)
    for name, help_, flags, arguments, handler in (
            [row for row in rows if argv and row[0] == argv[0]] or rows):
        sp = sub.add_parser(name, **({"help": help_} if help_ else {}))
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
        for arg in arguments() if callable(arguments) else arguments:
            if isinstance(arg[0], str):
                sp.add_argument(arg[0], **arg[1])
            else:
                group = sp.add_mutually_exclusive_group(required=True)
                for option, kw in arg:
                    group.add_argument(option, **kw)
        if isinstance(handler, tuple):
            _add_rows(sp, name + "_command", handler, argv[1:])
        else:
            sp.set_defaults(handler=handler)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = argparse.ArgumentParser(prog="nbase", description=__doc__)
    _add_rows(parser, "command", _COMMANDS, argv)
    args = parser.parse_args(argv)
    try:
        return args.handler(args) or 0
    except NBaseError as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
