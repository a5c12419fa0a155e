"""Tests for the streaming SLO sinks (quantile sketch and miss windows).

The hypothesis property here is the accuracy contract the load harness
rests on: the quantile sketch stays within its error bound of the exact
nearest-rank percentile.
"""

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.sinks import EmptyMetricError, LogHistogram, WindowedCounter

#: Worst-case relative error of a quantile at 100 bins per decade: a
#: bucket spans a factor of 10^(1/100), and its geometric midpoint is off
#: from any member by at most 10^(1/200) - 1 (about 1.16%).
ERROR_BOUND = 10 ** (1 / 200) - 1

positive_samples = st.lists(
    st.floats(min_value=1e-9, max_value=1e9,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=300)


def nearest_rank(samples, q):
    """The exact nearest-rank percentile the sketch approximates."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


# ----------------------------------------------------------------- histogram
def test_histogram_empty_contract():
    hist = LogHistogram()
    assert hist.count == 0
    with pytest.raises(EmptyMetricError, match="no samples recorded"):
        hist.quantile(50)
    with pytest.raises(EmptyMetricError):
        hist.maximum


def test_histogram_exact_extremes():
    hist = LogHistogram()
    for value in (0.004, 0.1, 3.7):
        hist.observe(value)
    assert hist.maximum == 3.7
    assert hist.quantile(0) >= 0.004
    assert hist.quantile(100) <= 3.7
    assert hist.quantile(100) == pytest.approx(3.7, rel=ERROR_BOUND)


def test_histogram_nonpositive_goes_to_underflow():
    hist = LogHistogram()
    hist.observe(0.0)
    hist.observe(-1.5)
    hist.observe(2.0)
    assert hist.count == 3
    # Underflow samples clamp to the tracked minimum, not a log bucket.
    assert hist.quantile(1) == -1.5


@settings(max_examples=60, deadline=None)
@given(samples=positive_samples,
       q=st.floats(min_value=1.0, max_value=100.0))
def test_histogram_quantile_error_bound(samples, q):
    hist = LogHistogram()
    for value in samples:
        hist.observe(value)
    exact = nearest_rank(samples, q)
    # A sample landing exactly on a bucket edge sits at precisely the
    # bound; a few ulps of slack keep the comparison robust to that.
    assert hist.quantile(q) == pytest.approx(
        exact, rel=ERROR_BOUND * (1 + 1e-9))


def test_histogram_digest_hashes_the_canonical_state():
    # SLO reports serialize this digest, so the hashed bytes are pinned.
    hist = LogHistogram()
    for value in (0.004, 0.1, 3.7, 0.0):
        hist.observe(value)
    state = ('{"bins_per_decade":100,"count":4,"counts":[[-240,1],[-100,1],'
             '[56,1]],"max":"3.7","min":"0.0","type":"log_histogram",'
             '"underflow":1}')
    assert hist.digest() == hashlib.sha256(state.encode("ascii")).hexdigest()
    assert hist.digest() == (
        "3f1264c7153a31d63b9146a2d15e0006c26c995fc4207c291eb60a11abd66b05")


# ------------------------------------------------------------------- windows
def test_windowed_counter_basics():
    counter = WindowedCounter()   # fixed 0.5 s windows
    for t in (0.1, 0.2, 0.6, 1.9):
        counter.observe(t)
    assert counter.count == 4
    assert counter.windows() == [(0, 2), (1, 1), (3, 1)]
