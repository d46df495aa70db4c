"""Tests of the benchmark itself.  Run: python3 -m pytest perfbench -q"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import cases  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

DIGEST_SCRIPT = """
import hashlib, json, sys
sys.path[:0] = [%r, %r]
import cases
for w in %r:
    blob = json.dumps(cases.generate(w, 7, 2)).encode()
    print(w, hashlib.sha256(blob).hexdigest())
"""


def _digests(hash_seed):
    script = DIGEST_SCRIPT % (os.path.join(ROOT, "src"), HERE, run.WORKLOADS)
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    out = subprocess.run([sys.executable, "-c", script], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    return dict(line.split() for line in out.splitlines())


def test_seed_determines_inputs():
    first = _digests(1)
    assert set(first) == set(run.WORKLOADS)
    assert _digests(2) == first
    for w in ("axioms34", "ordinal_roundtrip", "coset_enum"):
        a = cases.generate(w, 7, 2)
        assert cases.generate(w, 7, 2) == a
        assert cases.generate(w, 8, 2) != a
        # a longer run sees the same first rounds
        assert cases.generate(w, 7, 3)[:len(a)] == a
        assert all(isinstance(arg, (str, int, list, dict)) for case in a for arg in case)


def test_timed_process_starts_with_empty_caches(tmp_path):
    from nbase import elements
    cases.generate("axioms34", 1, 3)
    assert len(elements._compose_cache) > 0  # generating inputs fills the memo here
    for w in ("axioms34", "level2_calculus", "coset_enum"):
        report = run.spawn({"workload": w, "mode": "setup"}, str(tmp_path))
        assert report["caches_at_start"] == {"compose_memo": 0, "enumerate_cache": 0}
        assert 0 < report["setup_s"] < 30


def test_wrong_verdict_counts_as_failure():
    import ops
    batch = cases.generate("ordinal_roundtrip", 3, 3)
    target = batch[4]
    run_ord, check_ord = ops.OPS["ord"]

    def lying(case):
        back, same, back2 = run_ord(case)
        return back, (not same) if case is target else same, back2

    def raising(case):
        if case is batch[6]:
            raise RuntimeError("injected")
        return lying(case)

    loop = worker.Loop({"ord": (lying, check_ord)}).run(iter(batch))
    assert (loop.ops_done, loop.failed, loop.wrong) == (9, 1, 1)
    attempted, failed, correct = run.outcome([loop.result()])
    assert (attempted, failed, correct) == (9, 1, False)
    assert len(loop.lat) == 9  # the failed operation is still timed

    loop = worker.Loop({"ord": (raising, check_ord)}).run(iter(batch))
    assert (loop.failed, loop.wrong, loop.unexpected) == (2, 1, 1)


def test_only_the_eight_node_overflow_is_expected():
    import ops
    from nbase.errors import Overflow, ParseError

    def refuse(error):
        def run_op(case):
            raise error("injected")
        return run_op

    eight, seven = cases.binary_shapes(8)[5], cases.binary_shapes(7)[5]
    for kind, case, error, correct in (
            ("verify", [0, "verify", eight], Overflow, True),
            ("verify", [0, "verify", eight], ParseError, False),
            ("verify", [0, "verify", seven], Overflow, False),
            ("tc", [0, "tc", 4], Overflow, False)):
        loop = worker.Loop({kind: (refuse(error), ops.OPS[kind][1])}).run(iter([case]))
        assert run.outcome([loop.result()]) == (1, 1, correct), (kind, error)


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def _bench(args):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=ROOT,
                          capture_output=True, text=True, timeout=170)


def test_runs_print_every_metric():
    for trace, names in (("0", run.END_TO_END), ("1", run.PER_LAYER)):
        proc = _bench(["--workload", "ordinal_roundtrip", "--seed", "5",
                       "--seconds", "1", "--trace", trace])
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert result["metrics"] == {
            n: {"value": result["metrics"][n]["value"], "unit": u} for n, u in names}
    layer = {n: v["value"] for n, v in result["metrics"].items()}
    # reached only through the names ordinals imported from elements
    assert layer["elements.graft_at_slot.calls"] > 0
    assert layer["ordinals.encode.calls"] == layer["ordinals.parse_ordinal.calls"] > 0
    assert layer["trace.overhead_ratio"] > 1

