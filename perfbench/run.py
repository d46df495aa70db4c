"""nbase benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (or anywhere: paths are resolved from this
file).  Inputs are generated from the seed in this process and written as
literals to a case file; a fresh worker process (worker.py) imports nbase,
does the workload's set-up and runs the cases for S seconds, stopping at a
round boundary.

With ``--trace 0`` it prints every end-to-end metric; ``setup_s`` comes
from SETUP_REPEATS set-up-only workers, each paired with bare interpreter
starts (see setup_samples).  With ``--trace 1`` an untraced pass of S/3
seconds is followed by a traced pass over the same operations, and it
prints the per-layer metrics and the tracing overhead.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  Each run is also appended to ``.bench_out/runs.jsonl`` with the
interpreter, nproc, commit and seed.

Exit status 2 without a result when a worker fails or the run is too short
to measure.
"""

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import worker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("axioms34", "level2_calculus", "ordinal_roundtrip", "coset_enum",
             "cli_cold")

# The tail percentile of each workload.  coset_enum and cli_cold run about
# 100 operations, so p85 and p90 keep ten samples beyond them (coset_enum's
# rounds put p85 inside the S7 enumerations, see cases.TC_PER_ROUND).
# axioms34's p95 and p99 are set by the few dozen longest level-3 sequences
# of a run and varied by 6-16 % between seeds; its p90 by 4-6 %.  The raw
# p99 is printed.
TAIL_PERCENTILE = {"axioms34": 90, "level2_calculus": 99, "ordinal_roundtrip": 99,
                   "coset_enum": 85, "cli_cold": 90}

SETUP_REPEATS = 8
# setup_s is set-up time over a bare interpreter start timed next to it,
# scaled by this nominal interpreter start: a set-up spawn and a `python -c
# pass` spawn slow down alike when the shared host does, so the ratio
# cancels host speed while raw set-up seconds swing by +-20 %.  The raw
# seconds are printed as `raw setup_s`.
NOMINAL_INTERP_S = 0.050
WORKER_TIMEOUT_S = 170

# Operation costs are reported over a reference measured next to each
# operation (see paired_ratios): host speed on a shared machine drifts by
# +-20 % over seconds, which raw times carry and these ratios cancel.  The
# raw figures are printed above the result line.
END_TO_END = (
    ("op_cost_ref", "ratio"),
    ("latency_p50_ref", "ratio"),
    ("latency_tail_ref", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

TRACED = (
    "elements.PlainElement", "elements.compose", "elements.total_G",
    "elements.normalize", "elements.graft_at_slot", "elements.decompose_head",
    "trees.to_tree", "trees.from_tree",
    "morphisms.apply_one", "morphisms.apply_two", "morphisms.complete_square",
    "morphisms.induced_two_on_composition",
    "enumeration.enumerate_elements",
    "ordinals.parse_ordinal", "ordinals.encode", "ordinals.eval_phin",
    "ordinals.cmp", "ordinals.add",
    "presentations.todd_coxeter", "presentations.verify_symmetric_realization",
    "grammar.parse_element", "grammar.format_element",
)

PER_LAYER = tuple(
    [(n + ".calls", "count") for n in TRACED]
    + [(n + ".self_s", "s") for n in TRACED]
    + [("units.unit.calls", "count"),
       ("elements.compose.repeat_share", "share"),
       ("presentations.todd_coxeter.live_cosets", "count"),
       ("presentations.todd_coxeter.overflows", "count"),
       ("cli.interp_start_ms", "ms"),
       ("cli.import_ms", "ms"),
       ("cli.command_ms", "ms"),
       ("trace.overhead_ratio", "ratio"),
       ("host.calib_ms", "ms")])


class BenchError(Exception):
    pass


def host_info():
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    calib = median([worker.calib_ms() for _ in range(31)])
    return {"python": platform.python_version(), "implementation": sys.implementation.name,
            "nproc": os.cpu_count(), "commit": commit or "unknown",
            "calib_ms": round(calib, 4)}


def spawn(job, workdir):
    """Run one worker; return its report plus the spawn-to-ready time."""
    path = os.path.join(workdir, "job-%d.json" % spawn.count)
    spawn.count += 1
    with open(path, "w") as fh:
        json.dump(job, fh)
    t_spawn = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), path],
                            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out after %d s" % WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not out.strip():
        raise BenchError("worker failed (exit %s): %s" % (proc.returncode, err[-2000:]))
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_s"] = report["t_ready"] - t_spawn
    return report


spawn.count = 0


def interp_start_s():
    """One bare interpreter start, `python -c pass`, spawned as a worker is."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, capture_output=True,
                   check=True, timeout=WORKER_TIMEOUT_S)
    return time.perf_counter() - t0


def setup_samples(job, workdir, count):
    """`count` set-up-only workers, each between two bare interpreter
    starts; returns (set-up seconds, mean of the two starts) pairs."""
    interp = [interp_start_s()]
    pairs = []
    for _ in range(count):
        setup = spawn(dict(job, mode="setup"), workdir)["setup_s"]
        interp.append(interp_start_s())
        pairs.append((setup, (interp[-2] + interp[-1]) / 2))
    return pairs


def quantile(values, pct):
    """The pct-th percentile, interpolated as statistics.quantiles does."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def median(values):
    return statistics.median(values) if values else float("nan")


def paired_ratios(report):
    """Each operation's latency over the mean of its two adjacent reference
    samples (the last before it, the first after it)."""
    ref = report["ref_ms"]
    return [lat * 1e3 / ((ref[k] + ref[k + 1]) / 2)
            for lat, k in zip(report["lat"], report["ref_idx"])]


def end_to_end(workload, seconds, main, setups):
    """(gated metrics, raw figures); both as {name: (value, unit, note)}."""
    lat_ms = [v * 1e3 for v in main["lat"]]
    n = len(lat_ms)
    pct = TAIL_PERCENTILE[workload]
    ratios = paired_ratios(main)
    if workload == "cli_cold":
        ref_name = "bare interpreter start (python -c pass)"
        rss, rss_note = main["children_rss_mb"], "ru_maxrss of the largest command process"
    else:
        ref_name = "fixed pure-Python loop"
        rss_round = worker.rss_round(workload, seconds)
        if main["rss_round"] is None:
            raise BenchError("the run ended before round %d, where peak_rss_mb is read"
                             % rss_round)
        rss = main["rss_round"]
        rss_note = "VmHWM of the timed process when round %d started" % rss_round
    ref = "reference: %s, n=%d, median %.4g ms" % (ref_name, len(main["ref_ms"]),
                                                    median(main["ref_ms"]))
    tail = "p%d, n=%d, %.1f samples beyond" % (pct, n, n * (100 - pct) / 100)
    gated = {
        "op_cost_ref": (statistics.fmean(ratios), "ratio",
                        "mean of latency / paired reference over n=%d; %s" % (n, ref)),
        "latency_p50_ref": (median(ratios), "ratio", "median, n=%d" % n),
        "latency_tail_ref": (quantile(ratios, pct), "ratio", tail),
        "setup_s": (median([s / i for s, i in setups]) * NOMINAL_INTERP_S, "s",
                    "median over %d fresh processes of set-up / paired interpreter "
                    "start, times %g s: %s" % (
                        len(setups), NOMINAL_INTERP_S,
                        " ".join("%.3f" % (s / i) for s, i in setups))),
        "peak_rss_mb": (rss, "MB", rss_note),
    }
    raw = {
        "setup_s": (median([s for s, _i in setups]), "s",
                    "median of %d; bare interpreter start median %.4g s"
                    % (len(setups), median([i for _s, i in setups]))),
        "ops_per_s": (n / sum(main["lat"]), "1/s", "n=%d operations over %.3f s of "
                      "operation time, %d rounds" % (n, sum(main["lat"]), main["rounds"])),
        "latency_p50_ms": (median(lat_ms), "ms", "n=%d" % n),
        "latency_p%d_ms" % pct: (quantile(lat_ms, pct), "ms", tail),
    }
    if pct < 99 and n >= 1000:
        raw["latency_p99_ms"] = (quantile(lat_ms, 99), "ms", "n=%d, %.1f samples beyond"
                                 % (n, n / 100))
    return gated, raw


def merge_cli_traces(trace_dir):
    layers, counters, spans = {}, {}, 0
    for path in glob.glob(os.path.join(trace_dir, "cmd-*.json")):
        with open(path) as fh:
            summary = json.load(fh)["summary"]
        spans += summary["spans"]
        for name, rec in summary["layers"].items():
            acc = layers.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += rec["calls"]
            acc["self_s"] += rec["self_s"]
        for key, val in summary["counters"].items():
            counters[key] = counters.get(key, 0) + val
    return {"layers": layers, "counters": counters, "spans": spans}


def per_layer(workload, untraced, traced, summary, host_calib):
    # both passes are normalized by their own reference samples, which the
    # tracer does not record, so host drift between the passes cancels
    m = len(traced["lat"])
    overhead = (statistics.fmean(paired_ratios(traced))
                / statistics.fmean(paired_ratios(untraced)[:m]))
    layers, counters = summary["layers"], summary["counters"]
    metrics = {}
    for name in TRACED:
        rec = layers.get(name, {"calls": 0, "self_s": 0.0})
        metrics[name + ".calls"] = rec["calls"]
        metrics[name + ".self_s"] = rec["self_s"]
    keys = counters.get("elements.compose.keys", 0)
    cli = workload == "cli_cold"
    metrics.update({
        "units.unit.calls": layers.get("units.unit", {"calls": 0})["calls"],
        "elements.compose.repeat_share":
            counters.get("elements.compose.repeats", 0) / keys if keys else 0.0,
        "presentations.todd_coxeter.live_cosets":
            counters.get("presentations.todd_coxeter.live_cosets", 0),
        "presentations.todd_coxeter.overflows":
            counters.get("presentations.todd_coxeter.overflows", 0),
        "cli.interp_start_ms": median(untraced["ref_ms"]) if cli else 0.0,
        "cli.import_ms": median(untraced["import_ms"]) if cli else 0.0,
        "cli.command_ms": median([v * 1e3 for v in untraced["lat"]]) if cli else 0.0,
        "trace.overhead_ratio": overhead,
        "host.calib_ms": host_calib,
    })
    note = ("traced pass: %d operations, %d spans; untraced pass: %d operations; "
            "overhead %.3f = traced / untraced mean paired cost over the same %d operations"
            % (m, summary["spans"], len(untraced["lat"]), overhead, m))
    return metrics, note


def kind_table(report):
    by_kind = {}
    for kind, lat in zip(report["kinds"], report["lat"]):
        by_kind.setdefault(kind, []).append(lat * 1e3)
    return ["  %-8s n=%-7d p50 %.4g ms  max %.4g ms" % (k, len(v), median(v), max(v))
            for k, v in sorted(by_kind.items())]


def outcome(reports):
    attempted = sum(r["ops"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    correct = all(r["wrong"] == 0 and r["unexpected"] == 0 for r in reports)
    return attempted, failed, correct


def describe_failures(report, label):
    lines = []
    if report["errors"]:
        lines.append("%serrors raised: %s" % (label, json.dumps(report["errors"], sort_keys=True)))
    for f in report["first_failures"]:
        lines.append("  failed: %s  %s" % (f["why"], json.dumps(f["case"])[:300]))
    return lines


def run(args):
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import cases

    host = host_info()
    workdir = os.path.join(OUT, "run-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    lines = ["# perfbench workload=%s seed=%d seconds=%d trace=%d"
             % (args.workload, args.seed, args.seconds, args.trace),
             "# host python=%(python)s nproc=%(nproc)s commit=%(commit)s "
             "host.calib_ms=%(calib_ms)s" % host]
    try:
        t0 = time.perf_counter()
        rounds = cases.rounds_for(args.workload, args.seconds)
        case_list = cases.generate(args.workload, args.seed, rounds)
        case_path = os.path.join(workdir, "cases.jsonl")
        with open(case_path, "w") as fh:
            for case in case_list:
                fh.write(json.dumps(case, separators=(",", ":")) + "\n")
        lines.append("# inputs: %d cases in %d rounds, generated in %.2f s"
                     % (len(case_list), rounds, time.perf_counter() - t0))
        job = {"workload": args.workload, "cases": case_path, "host": host}
        if args.trace:
            untraced = spawn(dict(job, mode="run", seconds=max(1.0, args.seconds / 3),
                                  import_probe=True), workdir)
            trace_dir = os.path.join(OUT, "trace", args.workload)
            shutil.rmtree(trace_dir, ignore_errors=True)
            traced = spawn(dict(job, mode="run", trace=True, max_ops=untraced["ops"],
                                trace_dir=trace_dir), workdir)
            summary = (merge_cli_traces(trace_dir) if args.workload == "cli_cold"
                       else traced["trace"])
            values, note = per_layer(args.workload, untraced, traced, summary,
                                      host["calib_ms"])
            metrics = {n: (values[n], u, "") for n, u in PER_LAYER}
            raw = {}
            lines.append("# " + note)
            lines.append("# spans written to %s" % os.path.relpath(trace_dir, ROOT))
            reports = [untraced, traced]
        else:
            # set-up repeats on both sides of the run, to sample more than
            # one host-speed phase
            setups = setup_samples(job, workdir, SETUP_REPEATS // 2)
            main = spawn(dict(job, mode="run", seconds=args.seconds), workdir)
            setups.extend(setup_samples(job, workdir, SETUP_REPEATS - SETUP_REPEATS // 2))
            metrics, raw = end_to_end(args.workload, args.seconds, main, setups)
            reports = [main]
            lines.append("# caches at the first operation: %s"
                         % json.dumps(main["caches_at_start"], sort_keys=True))
        last = reports[-1]
        lines.append("# %d operations in %d rounds; stopped by %s"
                     % (last["ops"], last["rounds"],
                        "running out of generated rounds" if last["exhausted"]
                        else last["stopped"]))
        attempted, failed, correct = outcome(reports)
        if args.trace:
            lines.append("# traced pass by kind:")
        lines.extend(kind_table(last))
        for r, label in zip(reports, ("untraced pass: ", "traced pass: ") if args.trace else ("",)):
            lines.extend(describe_failures(r, label))
        for name, (value, unit, note) in sorted(metrics.items()):
            lines.append("%-44s %-14.6g %-6s %s" % (name, value, unit, note))
        for name, (value, unit, note) in raw.items():
            lines.append("%-44s %-14.6g %-6s %s" % ("raw " + name, value, unit, note))
        lines.append("%-44s %-14.6g %-6s %d of %d operations failed"
                     % ("fail_share", failed / attempted, "share", failed, attempted))
    finally:
        for path in glob.glob(os.path.join(workdir, "*.json*")):
            os.remove(path)
        os.rmdir(workdir)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit, _note) in metrics.items()}}
    with open(os.path.join(OUT, "runs.jsonl"), "a") as fh:
        fh.write(json.dumps({"time": time.strftime("%Y-%m-%dT%H:%M:%S"),
                             "workload": args.workload, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace,
                             "host": host, **result}) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    try:
        run(args)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
