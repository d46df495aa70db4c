"""The timed process: one fresh interpreter per run, one closed-loop client.

Started by run.py as ``python perfbench/worker.py JOB.json``.  It imports
the nbase modules the workload needs and does the workload's one-time
set-up; that interval, measured from the parent's spawn, is the set-up
time (see run.setup_samples).  Only then does it read the case file, so
generating and parsing inputs on the benchmark side is excluded.  Each
operation is issued after the previous one finished; its latency runs from
its start to the program's verdict.  The verdict is checked outside that
interval.  The result is one JSON object on the last line of stdout.
"""

import gc
import importlib
import json
import os
import resource
import sys
from array import array
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# What each workload imports before its first operation.  cli_cold times
# the import of the whole package through its entry point.
SETUP_IMPORTS = {
    "axioms34": ("nbase",),
    "level2_calculus": ("nbase", "nbase.morphisms", "nbase.enumeration", "nbase.units"),
    "ordinal_roundtrip": ("nbase", "nbase.ordinals"),
    "coset_enum": ("nbase", "nbase.presentations"),
    "cli_cold": ("nbase", "nbase.cli"),
}

# In-process workloads take a reference sample before an operation when
# the last one is older than this; host speed on a shared machine changes
# over seconds, so each operation is paired with samples taken within
# this interval of it.
REF_EVERY_S = 0.05

# peak_rss_mb is read when round RSS_ROUNDS_PER_S * seconds starts, so it
# measures a fixed amount of work whatever the host speed (a run on a faster
# host does more rounds).  The slowest 15-second runs seen completed at
# least twice these rates; a run that does not reach the round is an error.
RSS_ROUNDS_PER_S = {"axioms34": 13, "level2_calculus": 260, "ordinal_roundtrip": 100,
                    "coset_enum": 0.15}


def rss_round(workload, seconds):
    if workload not in RSS_ROUNDS_PER_S or seconds is None:
        return None
    return max(1, int(RSS_ROUNDS_PER_S[workload] * seconds))


def calib_ms():
    """A fixed pure-Python loop (dict, tuple and str work), in ms.

    The collector is off while it runs, so a collection the program's heap
    makes due cannot land in a reference sample.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t = perf_counter()
        d = {}
        acc = 0
        for i in range(1000):
            key = (i % 97, i % 89)
            d[key] = d.get(key, 0) + 1
            acc += len(str(i))
        sorted(d.items())
        return (perf_counter() - t) * 1e3
    finally:
        if was_enabled:
            gc.enable()


def peak_rss_mb():
    """Peak resident set of this process image, in MB.

    ru_maxrss is not used for the timed process: Linux carries the parent's
    resident size at fork into it across exec, and the parent holds the
    generated inputs.  VmHWM belongs to the process image alone.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cache_sizes():
    """Entries in the program's process-global caches (modules not yet
    imported have none)."""
    elements = sys.modules.get("nbase.elements")
    enumeration = sys.modules.get("nbase.enumeration")
    return {"compose_memo": len(elements._compose_cache) if elements else 0,
            "enumerate_cache": (enumeration._enumerate.cache_info().currsize
                                if enumeration else 0)}


def setup(workload):
    """The workload's one-time program set-up; returns worker state."""
    if workload == "level2_calculus":
        from nbase.enumeration import enumerate_elements
        return {"pool": frozenset(enumerate_elements(2, 5, 3))}
    return {}


class Loop:
    """Runs cases in a closed loop and keeps what the parent reports.

    Between operations it takes reference samples, `reference()` in ms,
    whenever `ref_due(ops_done, seconds_since_last_sample)` holds, and
    always once before the first and once after the last operation.
    Operation t is paired with samples ref_idx[t] (the last before it) and
    ref_idx[t] + 1 (the first after it).
    """

    def __init__(self, ops, tracer=None, reference=calib_ms, ref_due=None):
        from ops import expected_failure
        self.expected_failure = expected_failure
        self.ops = ops
        self.tracer = tracer
        self.reference = reference
        self.ref_due = ref_due or (lambda done, idle: idle >= REF_EVERY_S)
        self.lat = array("d")
        self.kinds = []
        self.ref_ms = []
        self.ref_idx = array("i")
        self.failed = 0
        self.wrong = 0
        self.errors = {}
        self.unexpected = 0
        self.first_failures = []
        self.ops_done = 0
        self.rounds = 0
        self.rss_mb = None
        self.exhausted = False
        self.stopped = None

    def fail(self, case, why):
        self.failed += 1
        if len(self.first_failures) < 5:
            self.first_failures.append({"case": case, "why": why})

    def sample_ref(self):
        self.ref_ms.append(self.reference())
        self.last_ref = perf_counter()

    def one(self, case):
        run, check = self.ops[case[1]]
        err = None
        if self.tracer is not None:
            self.tracer.op = self.ops_done + 1
            self.tracer.paused = False
        t0 = perf_counter()
        try:
            out = run(case)
        except Exception as exc:  # every failure is counted, none stops the run
            err = exc
        t1 = perf_counter()
        if self.tracer is not None:
            self.tracer.paused = True
        self.lat.append(t1 - t0)
        self.kinds.append(case[1])
        self.ops_done += 1
        if err is not None:
            name = type(err).__name__
            self.errors[name] = self.errors.get(name, 0) + 1
            if not self.expected_failure(case, err):
                self.unexpected += 1
            self.fail(case, "%s: %s" % (name, str(err)[:200]))
        elif not check(case, out):
            self.wrong += 1
            self.fail(case, "wrong verdict")

    def run(self, cases, seconds=None, max_ops=None, rss_round=None):
        """Run until `seconds` have passed at a round boundary, or
        `max_ops` operations, or the tracer's span store is full."""
        deadline = None if seconds is None else perf_counter() + seconds
        self.sample_ref()
        current = None
        for case in cases:
            if case[0] != current:
                current = case[0]
                if current == rss_round:
                    self.rss_mb = peak_rss_mb()
                if deadline is not None and perf_counter() >= deadline:
                    self.stopped = "time"
                    break
                if self.tracer is not None and self.tracer.full():
                    self.stopped = "span cap"
                    break
                self.rounds += 1
            if max_ops is not None and self.ops_done >= max_ops:
                self.stopped = "op count"
                break
            if self.ops_done and self.ref_due(self.ops_done, perf_counter() - self.last_ref):
                self.sample_ref()
            self.ref_idx.append(len(self.ref_ms) - 1)
            self.one(case)
        else:
            self.exhausted = max_ops is None or self.ops_done < max_ops
        self.sample_ref()
        return self

    def result(self):
        return {"ops": self.ops_done, "rounds": self.rounds, "lat": list(self.lat),
                "kinds": self.kinds, "ref_ms": self.ref_ms, "ref_idx": list(self.ref_idx),
                "failed": self.failed, "wrong": self.wrong, "errors": self.errors,
                "unexpected": self.unexpected, "first_failures": self.first_failures,
                "exhausted": self.exhausted, "stopped": self.stopped,
                "rss_round": self.rss_mb}


def read_cases(path):
    with open(path) as fh:
        for line in fh:
            yield json.loads(line)


def cli_reference(probe_import):
    """Bare interpreter start, `python -c pass`, in ms.

    With probe_import, every second sample also times `python -c "import
    nbase.cli"` into the returned list.
    """
    import ops
    import subprocess

    imports = []
    calls = [0]

    def run_py(code):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=ops.CLI_ENV, cwd=ROOT,
                       capture_output=True, check=True)
        return (perf_counter() - t0) * 1e3

    def reference():
        calls[0] += 1
        if probe_import and calls[0] % 2 == 0:
            imports.append(run_py("import nbase.cli"))
        return run_py("pass")
    return reference, imports


def main(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    workload = job["workload"]
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    tracer = None
    for name in SETUP_IMPORTS[workload]:
        importlib.import_module(name)
    caches = cache_sizes()
    if job.get("trace"):
        import nbase.cli  # noqa: F401  (every module, so every binding is patched)
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    state = setup(workload)
    t_ready = perf_counter()
    report = {"t_ready": t_ready, "caches_at_start": caches}
    if job["mode"] == "setup":
        print(json.dumps(report))
        return 0

    import ops
    kinds = dict(ops.OPS)
    if "pool" in state:
        run_square, check_square = kinds["square"]

        def check_in_pool(case, out):
            return out[0].source in state["pool"] and check_square(case, out)
        kinds["square"] = (run_square, check_in_pool)
    if workload == "cli_cold" and tracer is not None:
        ops.CLI_PREFIX[:] = [sys.executable, os.path.join(HERE, "cli_traced.py")]
        ops.CLI_ENV["PERFBENCH_TRACE_DIR"] = job["trace_dir"]
    if workload == "cli_cold":
        # one interpreter-start sample per two commands
        reference, imports = cli_reference(job.get("import_probe", False))
        loop = Loop(kinds, tracer, reference, lambda done, idle: done % 2 == 0)
        report["import_ms"] = imports
    else:
        loop = Loop(kinds, tracer)
    loop.run(read_cases(job["cases"]), seconds=job.get("seconds"),
             max_ops=job.get("max_ops"),
             rss_round=rss_round(workload, job.get("seconds")))
    report.update(loop.result())
    # largest command process; at least the resident size of this process
    # when it forked, which imports the same modules
    report["children_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
    if tracer is not None:
        report["trace"] = tracer.summary()
        tracer.dump(os.path.join(job["trace_dir"], "worker"), report["trace"],
                    {"workload": workload, "host": job.get("host")})
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
