"""The median interval `tools/ab_pass.py` prints."""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
try:
    from ab_pass import median_interval
finally:
    sys.path.pop(0)


def _ranks(n):
    """(j, n - j + 1) for the largest j with P(Binomial(n, 1/2) <= j - 1) <= 0.025,
    by summing the tail at each j; None when no j qualifies."""
    js = [j for j in range(1, n + 1) if sum(math.comb(n, i) for i in range(j)) / 2**n <= 0.025]
    return (js[-1], n - js[-1] + 1) if js else None


def test_median_interval_takes_the_binomial_ranks():
    # values in reverse order, so ranks are read after sorting
    for n in range(1, 41):
        assert median_interval([float(v) for v in range(n, 0, -1)]) == _ranks(n)


def test_median_interval_table_values():
    # the textbook ranks: n = 6 gives the extremes, 10 gives 2 and 9, 20 gives 6 and 15
    assert median_interval([1.0] * 5) is None
    assert median_interval(list(range(1, 7))) == (1, 6)
    assert median_interval(list(range(1, 11))) == (2, 9)
    assert median_interval(list(range(1, 21))) == (6, 15)
