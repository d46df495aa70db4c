import json
import os
import subprocess
import sys
import time

import pytest

import nbase
from nbase.cli import _worker_count, main
from nbase.selftest import SUITES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compose_level1(capsys):
    code, out, _ = run(capsys, "compose", "--level", "1", "4", "2", "3")
    assert code == 0 and out.strip() == "6"


def test_compose_json(capsys):
    code, out, _ = run(capsys, "compose", "--json", "[3,2,4,3|1,4,5]", "3",
                       "[3,2|2]")
    blob = json.loads(out)
    assert blob["shuffle"]["psi"] == {"1": 3, "2": 4}


def test_ord_eval(capsys):
    code, out, _ = run(capsys, "ord", "eval", "--level", "2", "[1,1|1]")
    assert code == 0 and out.strip() == "w"


def test_ord_encode_roundtrip(capsys):
    code, out, _ = run(capsys, "ord", "encode", "--level", "2", "w^(2)+1")
    literal = out.strip()
    code, out, _ = run(capsys, "ord", "eval", "--level", "2", literal)
    assert out.strip() == "w^(2)+1"


def test_ord_cmp_add(capsys):
    assert run(capsys, "ord", "cmp", "1+w", "w")[1].strip() == "EQ"
    assert run(capsys, "ord", "add", "w", "1")[1].strip() == "w+1"


def test_group_order(capsys):
    code, out, _ = run(capsys, "group", "order", "--sym", "4")
    assert code == 0 and out.strip() == "24"


def test_group_verify_tree(capsys):
    code, out, _ = run(capsys, "group", "verify", "--tree", "[2,2,2|1,1]")
    assert code == 0 and "iso True" in out


def test_group_present_gap(capsys):
    code, out, _ = run(capsys, "group", "present", "--sym", "3", "--gap")
    assert "a1*a2*a1*a2*a1*a2" in out


def test_enum(capsys):
    code, out, _ = run(capsys, "enum", "--level", "2", "--max-factors", "2",
                       "--max-arity", "2")
    lines = out.strip().splitlines()
    assert len(lines) == 8 and lines == sorted(lines)
    code, out, _ = run(capsys, "enum", "--level", "2", "--max-factors", "2",
                       "--max-arity", "2", "--count-only")
    assert out.strip() == "8"


def test_enum_binary(capsys):
    code, out, _ = run(capsys, "enum", "--level", "2", "--binary", "6")
    assert out.strip() == "132"


def test_normalize(capsys):
    code, out, _ = run(capsys, "normalize", "[2,2,2|2,1]")
    lines = out.strip().splitlines()
    assert lines[0] == "[2,2,2|1,3]"
    assert "1->1" in lines[1] and "2->3" in lines[1]


def test_fg(capsys):
    code, out, _ = run(capsys, "fg", "--level", "1", "3")
    assert "m 3" in out and "F * * *" in out and "G *" in out


def test_head(capsys):
    code, out, _ = run(capsys, "head", "[3,2,4,3|1,4,5]")
    assert "head 3" in out and "slot 3 [4,3|2]" in out


def test_mor_apply1(capsys):
    code, out, _ = run(capsys, "mor", "apply1", "[2,2|1]",
                       '{"node_perms": [[2,1],[1,2]]}')
    assert json.loads(out)["target"] == "[2,2|2]"


def test_mor_square(capsys):
    code, out, _ = run(capsys, "mor", "square", "[2,2|1]",
                       '{"node_perms": [[1,2],[2,1]]}', '{"sigma": [2,1]}')
    blob = json.loads(out)
    assert blob["opposite"] == "[2,2|2]" and blob["commutes"]


def test_render_dot_parses(capsys):
    code, out, _ = run(capsys, "render", "[2,2|1]", "--format", "dot")
    assert out.startswith("digraph") and out.count("->") >= 3


def test_render_level4_rejected(capsys):
    code, _out, err = run(capsys, "render", "[[[2|]|]|]", "--format", "ascii")
    assert code == 1 and "LevelMismatch" in err


def test_domain_error_exit_code(capsys):
    code, _out, err = run(capsys, "validate", "[2,2|3]")
    assert code == 1 and "RangeViolation" in err


def test_enum_binary_zero_is_a_domain_error(capsys):
    code, _out, err = run(capsys, "enum", "--level", "2", "--binary", "0")
    assert code == 1 and "RangeViolation" in err and "Traceback" not in err


def test_group_order_sym_one_is_a_domain_error(capsys):
    code, _out, err = run(capsys, "group", "order", "--sym", "1")
    assert code == 1 and "RangeViolation" in err and "Traceback" not in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["compose"])
    assert exc.value.code == 2


def test_selftest_counts(capsys):
    code, out, _ = run(capsys, "selftest", "counts")
    assert code == 0 and "fail   0" in out


def test_roundtrip_parse_print(capsys):
    from nbase.enumeration import enumerate_elements
    from nbase.grammar import format_element, parse_element
    for level in (2, 3):
        for e in enumerate_elements(level, 2, 2):
            assert parse_element(format_element(e)) == e


@pytest.mark.parametrize("argv", [
    ["group", "order"],
    ["group", "present"],
    ["group", "verify"],
    ["group", "order", "--sym", "4", "--tree", "[2,2|1]"],
    ["group", "present", "--sym", "4", "--tree", "[2,2|1]"],
    ["group", "verify", "--sym", "4"],
    ["group", "order", "--sym", "4", "--max-cosets", "0"],
    ["group", "order", "--sym", "4", "--max-cosets", "-5"],
    ["group", "verify", "--tree", "[2,2|1]", "--max-cosets", "0"],
    ["group", "order", "--sym", "3", "--gap"],
    ["group", "verify", "--tree", "[2,2|1]", "--gap"],
    ["group", "present", "--sym", "3", "--max-cosets", "5"],
])
def test_group_usage_errors_print_usage(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage: nbase group") and "error:" in err
    assert "Overflow" not in err and "Traceback" not in err


def test_group_cap_overflow_reports_counts(capsys):
    code, _out, err = run(capsys, "group", "verify", "--tree", "[2,2,2|1,1]",
                          "--max-cosets", "3")
    assert code == 1
    assert err.strip() == ("Overflow: coset cap 3 exceeded: defined 3, live 3, "
                           "merged 0")


@pytest.mark.parametrize("argv", [
    ["mor", "apply1", "[2,2|1]", "{"],
    ["mor", "apply1", "[2,2|1]", "{}"],
    ["mor", "apply1", "[2,2|1]", '{"node_perms": 5}'],
    ["mor", "apply1", "[2,2|1]", '{"node_perms": [5, 3]}'],
    ["mor", "apply1", "[2,2|1]", "[1]"],
    ["mor", "apply2", "[2,2|1]", '{"sigma": 3}'],
])
def test_mor_json_usage_errors_print_usage(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage: nbase mor") and "error:" in err
    assert "Traceback" not in err


def test_mor_apply1_on_a_1500_node_chain(capsys):
    chain = "[%s|%s]" % (",".join(["1"] * 1500), ",".join(["1"] * 1499))
    code, out, err = run(capsys, "mor", "apply1", chain,
                         json.dumps({"node_perms": [[1]] * 1500}))
    blob = json.loads(out)
    assert code == 0 and err == "" and blob["target"] == chain
    assert blob["leaf_perm"] == [1]
    assert blob["node_relabel"] == list(range(1, 1501))


def test_ord_eval_on_a_1500_node_chain(capsys):
    chain = "[%s|%s]" % (",".join(["1"] * 1500), ",".join(["1"] * 1499))
    code, out, err = run(capsys, "ord", "eval", "--level", "2", chain)
    assert code == 0 and err == ""
    assert out == "w^(" * 1498 + "w" + ")" * 1498 + "\n"


@pytest.mark.parametrize("factor,subscript", [("[1|]", 2), ("[[1|]|]", 3)])
def test_ord_eval_on_a_1500_factor_chain_above_level_2(capsys, factor,
                                                       subscript):
    # each factor grafted into slot 1 of the one before: level 3 and 4
    chain = "[%s|%s]" % (",".join([factor] * 1500), ",".join(["1"] * 1499))
    start = time.perf_counter()
    code, out, err = run(capsys, "ord", "eval", chain)
    assert time.perf_counter() - start < 5
    assert code == 0 and err == ""
    assert out == "phi(%d," % subscript * 1499 + "0" + ")" * 1499 + "\n"


@pytest.mark.parametrize("literal", [
    "[" * 3000 + "1" + "|]" * 3000,
    "[" * 100000,
])
def test_validate_rejects_deep_nesting(capsys, literal):
    code, out, err = run(capsys, "validate", literal)
    assert code == 1 and out == ""
    assert err.startswith("SizeBound: ") and err.count("\n") == 1


def test_selftest_workers_are_clamped():
    cpus = os.cpu_count() or 1
    assert _worker_count(10 ** 6, len(SUITES)) == min(len(SUITES), cpus)
    assert _worker_count(10 ** 6, 1) == 1
    assert _worker_count(1, len(SUITES)) == 1


def test_render_ascii_is_unchanged(capsys):
    code, out, err = run(capsys, "render", "[2,2|1]")
    assert code == 0 and err == ""
    assert out == "node1(2)\n+-node2(2)\n| +-leaf\n| `-leaf\n`-leaf\n"


@pytest.mark.parametrize("fmt,nodes", [("ascii", "node"), ("dot", "shape=triangle")])
def test_render_on_a_1500_node_chain(capsys, fmt, nodes):
    chain = "[%s|%s]" % (",".join(["1"] * 1500), ",".join(["1"] * 1499))
    code, out, err = run(capsys, "render", chain, "--format", fmt)
    assert code == 0 and err == ""
    assert out.count(nodes) == 1500


@pytest.mark.parametrize("opener", ["phi(1,", "w^("])
def test_ord_cmp_nesting_bound(capsys, opener):
    literal = opener * 256 + "1" + ")" * 256
    code, out, err = run(capsys, "ord", "cmp", literal, literal)
    assert code == 0 and out.strip() == "EQ" and err == ""
    literal = opener * 2000 + "1" + ")" * 2000
    code, out, err = run(capsys, "ord", "cmp", literal, literal)
    assert code == 1 and out == ""
    assert err.startswith("SizeBound: ") and err.count("\n") == 1


def test_group_order_sym_degree_bound(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "group", "order", "--sym", "1000")
    assert time.perf_counter() - start < 0.5
    assert code == 1 and out == ""
    assert err.startswith("SizeBound: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["ord", "cmp", "²", "1"],
    ["ord", "add", "w", "w+¹"],
    ["validate", "[²|]"],
])
def test_non_decimal_digits_are_parse_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("ParseError: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["ord", "eval", "--level", "2", "[1,1|1]"],
    ["mor", "apply1", "[2,2|1]", '{"node_perms": [[2,1],[1,2]]}'],
    ["render", "[2,2|1]", "--format", "dot"],
])
def test_readme_commands_under_python_O(argv):
    # -O strips asserts; no result may depend on one
    src = os.path.dirname(os.path.dirname(os.path.abspath(nbase.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    plain, optimized = (
        subprocess.run([sys.executable, *flags, "-m", "nbase.cli", *argv],
                       capture_output=True, text=True, env=env, timeout=60)
        for flags in ([], ["-O"]))
    assert plain.returncode == 0 and plain.stdout and plain.stderr == ""
    assert optimized.returncode == plain.returncode
    assert optimized.stdout == plain.stdout


def test_ord_eval_on_two_700_node_chains(capsys):
    # the value is T+T with T nested 699 deep; adding the two terms
    # compares them, which must not recurse once per nesting level
    literal = "[%s|%s]" % (",".join(["2"] + ["1"] * 1400),
                           ",".join(["1"] * 700 + ["2"] * 700))
    term = "w^(" * 699 + "w" + ")" * 699
    code, out, err = run(capsys, "ord", "eval", literal)
    assert code == 0 and err == ""
    assert out == term + "+" + term + "\n"


@pytest.mark.parametrize("argv", [
    ["shuffle", "--pretty", "[2,2|2]", "1", "[2,1|2]"],
    ["normalize", "--pretty", "[2,2,2|2,1]"],
    ["fg", "--pretty", "[3,2|1]"],
    ["head", "--pretty", "[3,2,4,3|1,4,5]"],
    ["render", "--pretty", "[2,2|1]"],
    ["render", "--json", "[2,2|1]"],
])
def test_ignored_options_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage: nbase %s" % argv[0])
    assert "unrecognized arguments: %s" % argv[1] in err


def test_compose_pretty_appends_the_drawing(capsys):
    code, out, err = run(capsys, "compose", "--pretty", "[2,2|1]", "2", "[2|]")
    assert code == 0 and err == ""
    assert out == "[2,2|1]\nnode1(2)\n+-node2(2)\n| +-leaf\n| `-leaf\n`-leaf\n"


def test_enum_negative_level_is_a_domain_error(capsys):
    code, out, err = run(capsys, "enum", "--level", "-1", "--count-only")
    assert code == 1 and out == ""
    assert err.startswith("LevelMismatch: ") and err.count("\n") == 1


def test_fg_level1_arity_bound(capsys):
    code, out, err = run(capsys, "fg", "100000")
    assert code == 0 and err == "" and out.startswith("m 100000\nF * * ")
    code, out, err = run(capsys, "fg", "10000000")
    assert code == 1 and out == ""
    assert err.startswith("SizeBound: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv,error", [
    (["normalize", "1"], "LevelMismatch"),
    (["normalize", "--level", "0", "*"], "LevelMismatch"),
    (["normalize", "[1,1,11,1]"], "InvalidSequence"),
    (["normalize", "[2,2,2|2]"], "InvalidSequence"),
])
def test_normalize_rejects_what_is_not_a_raw_sequence(capsys, argv, error):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(error + ": ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["ord", "cmp", "9" * 5000, "1"],          # past int()'s 4300-digit limit
    ["ord", "cmp", "w", "9" * 4000],          # a tuple that size overflows
    ["ord", "cmp", "1000000000000", "1"],     # a tuple that size exhausts memory
    ["ord", "add", "w", "100001"],            # one above the arity bound
])
def test_ord_integer_literals_are_bounded(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("SizeBound: ") and err.count("\n") == 1


def test_ord_integer_literals_up_to_the_bound(capsys):
    assert run(capsys, "ord", "cmp", "100000", "0" * 5000 + "99999") == (
        0, "GT\n", "")


def test_ord_eval_of_a_wide_corolla_is_linear(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "ord", "eval", "100000")
    assert time.perf_counter() - start < 5
    assert (code, out, err) == (0, "100000\n", "")
    literal = "+".join(["1"] * 20000 + ["w"] + ["1"] * 20000)
    start = time.perf_counter()
    code, out, err = run(capsys, "ord", "add", literal, "1")
    assert time.perf_counter() - start < 5
    assert (code, out, err) == (0, "w+20001\n", "")
