"""The memory of a closed S7 enumeration, pinned.

`todd_coxeter(symmetric_presentation(7))` returns 5,040 public rows of 12
entries, about 0.96 MB under tracemalloc.  The peak of the whole call, the
enumeration and the compaction into public rows included, read 1.05-1.10 MB
with one list per coset; a compaction that held a second copy of the table
read 2.02 MB.  The bound leaves room for the first and none for the second.
"""

import tracemalloc

from nbase.presentations import symmetric_presentation, todd_coxeter

PEAK_BOUND = 1_250_000


def test_the_s7_enumeration_peak_stays_under_one_and_a_quarter_mb():
    pres = symmetric_presentation(7)
    tracemalloc.start()
    try:
        ct = todd_coxeter(pres)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ct.order == 5040
    assert peak <= PEAK_BOUND, peak
