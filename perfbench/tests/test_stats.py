"""Order statistics of perfbench.stats and the op accounting of Ops."""

import statistics

import pytest

from perfbench.stats import Ops, iqr_share, median, percentile, quartiles
from repro.serve import bench


def test_median_odd_and_even():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_median_rejects_empty():
    with pytest.raises(ValueError):
        median([])


def test_quartiles_match_statistics_quantiles():
    values = [9.0, 1.0, 7.0, 3.0, 5.0, 2.0, 8.0, 4.0, 6.0, 10.0]
    assert quartiles(values) == statistics.quantiles(values, n=4)
    q1, q2, q3 = quartiles(values)
    assert q2 == median(values)
    assert iqr_share(values) == pytest.approx((q3 - q1) / q2)


def test_quartiles_need_two_values():
    with pytest.raises(ValueError):
        quartiles([1.0])


def test_iqr_share_of_a_constant_sample_is_zero():
    assert iqr_share([2.0] * 10) == 0.0


def test_percentile_is_the_programs_nearest_rank():
    assert percentile is bench.percentile
    sample = [float(v) for v in range(1, 11)]  # 1..10
    assert percentile(sample, 50) == 5.0
    assert percentile(sample, 90) == 9.0
    assert percentile(sample, 100) == 10.0
    assert percentile([7.0], 90) == 7.0
    # nearest rank: ceil(3 * 0.9) = 3rd smallest, no interpolation
    assert percentile([1.0, 2.0, 30.0], 90) == 30.0


def test_ops_failed_share_counts_every_failure_kind():
    ops = Ops()
    for _ in range(6):
        ops.ok()
    ops.fail("http_429")                  # refused
    ops.fail("transport")                 # failed
    assert ops.check(False, "wrong_digest") is False  # wrong output
    assert ops.check(True, "unused") is True
    assert ops.attempted == 10
    assert ops.failed == 3
    assert ops.failed_share == pytest.approx(0.3)
    assert ops.reasons == {"http_429": 1, "transport": 1, "wrong_digest": 1}


def test_ops_correct_only_when_no_output_was_wrong():
    ops = Ops()
    assert not ops.correct  # nothing attempted is not a correct run
    ops.ok()
    ops.fail("http_429")
    assert ops.correct  # refused, but nothing answered wrongly
    ops.check(False, "wrong_digest")
    assert not ops.correct
    assert Ops().failed_share == 0.0


def test_spread_of_run_results():
    from perfbench.spread import spreads

    results = [
        {"metrics": {"pass_s": {"value": v, "unit": "s"}}}
        for v in (9.0, 10.0, 10.0, 11.0, 10.0)
    ]
    row = spreads(results)["pass_s"]
    assert row["median"] == 10.0
    assert row["spread"] == pytest.approx(
        iqr_share([9.0, 10.0, 10.0, 11.0, 10.0])
    )
