import statistics

import pytest

from stats import MaxError, Tally, summarize


def test_summarize_short_list_has_median_count_and_no_tail():
    out = summarize([3.0, 1.0, 2.0])
    assert out["n"] == 3
    assert out["p50"] == 2.0
    assert not any(k.startswith("p9") for k in out)
    q1, _, q3 = statistics.quantiles([1.0, 2.0, 3.0], n=4)
    assert out["iqr"] == pytest.approx(q3 - q1)


def test_summarize_reports_highest_percentile_with_ten_beyond():
    # 100 samples: 10 lie beyond p90, one beyond p99
    out = summarize(range(100))
    assert out["n"] == 100 and out["p50"] == 49.5
    assert out["p90"] == 89
    assert "p99" not in out
    # 99 samples: only 9 beyond p90
    assert not any(k.startswith("p9") for k in summarize(range(99)))
    # 1000 samples: p99 has 10 beyond it, p99.9 only one
    out = summarize(range(1000))
    assert out["p99"] == 989 and "p90" not in out and "p99.9" not in out


def test_summarize_single_sample_and_empty():
    assert summarize([5.0]) == {"n": 1, "p50": 5.0}
    with pytest.raises(ValueError):
        summarize([])


def test_tally_counts_errors_and_mismatches():
    t = Tally()
    t.record("a")
    t.record("b", error="raised")
    t.record("c", mismatch="0 spikes found, oracle has 1")
    t.record("d")
    assert t.attempted == 4
    assert t.errors == 1 and t.mismatches == 1 and t.failed == 2
    assert t.fail_frac == pytest.approx(0.5)
    assert t.ok_frac == pytest.approx(0.5)
    assert [n["op"] for n in t.notes] == ["b", "c"]


def test_tally_error_takes_precedence_over_mismatch():
    t = Tally()
    t.record("a", error="raised", mismatch="also wrong")
    assert (t.errors, t.mismatches) == (1, 0)


def test_tally_seed_theory_oracle_fraction():
    # 14 theory points and one MC leg, three seed-state defects
    t = Tally()
    for k in range(15):
        t.record(f"op{k}", mismatch="defect" if k < 3 else None)
    assert t.fail_frac == pytest.approx(3 / 15)
    assert t.ok_frac == pytest.approx(12 / 15)


def test_max_error_keeps_largest_and_applies_floor():
    acc = MaxError({"spike": 1e-10})
    acc.add("spike", -3e-13, "a")
    assert acc.value("spike") == 1e-10
    acc.add("spike", 2e-6, "b")
    acc.add("spike", 1e-7, "c")
    assert acc.value("spike") == 2e-6
    assert acc.worst["spike"][1] == "b"
    assert acc.value("missing") is None
