"""``selftest --jobs N`` sends each suite's report back from a worker
process; the reports that arrive say what an in-process run says."""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

from nbase.cli import _run_one
from nbase.selftest import run_suite

JOBS = [("counts", 0, "small"), ("groups", 0, "small")]


def test_reports_cross_the_process_pool_unchanged():
    with ProcessPoolExecutor(max_workers=2,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        reports = list(pool.map(_run_one, JOBS, timeout=120))
    for job, rep in zip(JOBS, reports):
        local = run_suite(*job)
        assert (rep.summary(), rep.passed, rep.failed) == (
            local.summary(), local.passed, local.failed)
        assert rep.passed > 0 and rep.failed == 0
