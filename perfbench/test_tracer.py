"""Tests of the benchmark's span arithmetic.  Run: python -m pytest perfbench"""

import pytest

from tracer import (VERIFIER, Tracer, additive_metrics, combine, metric_value, phase_table,
                    self_times)


def span(name, start, end, parent=None, job="pass0", counts=None):
    return [name, start, end, parent, job, counts]


def test_self_time_subtracts_children():
    spans = [span("a", 0.0, 10.0),
             span("b", 1.0, 3.0, parent=0),
             span("c", 4.0, 8.0, parent=0),
             span("d", 5.0, 6.0, parent=2)]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_merges_overlapping_children():
    spans = [span("a", 0.0, 10.0),
             span("b", 2.0, 6.0, parent=0),
             span("c", 4.0, 7.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_additive_metrics_filter_spans_scale_times_and_file_counts():
    spans = [span("x", 0.0, 2.0, counts={"x.n": 3}),
             span("x", 2.0, 3.0, job="check", counts={"x.n": 4}),
             span("y", 0.5, 1.0, parent=0)]
    table = additive_metrics(spans, lambda s: s[4] == "pass0", {"pass0": 2.0, "check": 1.0})
    assert table["x.self_s"] == pytest.approx(3.0)
    assert table["x.calls"] == 1 and table["x.n"] == 3
    assert table["y.self_s"] == pytest.approx(1.0)


def test_phase_table_keeps_only_the_verifier_from_the_checks():
    spans = [span("g", 0.0, 1.0, job="generate"),
             span("x", 1.0, 2.0, job="pass0/0"),
             span("x", 2.0, 5.0, job="pass1/0"),
             span("x", 5.0, 6.0, job="pass2/0"),
             span("x", 6.0, 7.0, job="check"),
             span(VERIFIER, 7.0, 9.0, job="check"),
             span("x", 7.5, 8.0, parent=5, job="check")]
    scale = {"generate": 1.0, "check": 1.0, "pass0/0": 1.0, "pass1/0": 1.0, "pass2/0": 3.0}
    table = phase_table(spans, scale)
    assert table["g.self_s"] == pytest.approx(1.0)
    assert table["x.calls"] == 1
    assert table["x.self_s"] == pytest.approx(3.0)  # median of 1, 3 and 1 x 3
    assert table[f"{VERIFIER}.self_s"] == pytest.approx(1.5)


def test_combine_adds_fixed_phases_to_median_pass():
    fixed = [{"x.calls": 1.0}, {"x.calls": 2.0}]
    passes = [{"x.calls": 10.0}, {"x.calls": 30.0}, {"x.calls": 20.0}]
    assert combine(fixed, passes)["x.calls"] == 23.0


def test_ratio_metrics():
    table = {"s.accepted": 3.0, "s.rejected": 1.0, "t.witnesses": 2.0}
    assert metric_value(table, "s.accept_ratio") == 0.75
    assert metric_value(table, "t.witness_ratio") == 0.0


def test_install_records_nested_spans_and_restores():
    import numpy as np
    from tauberian_lab import maximal

    original = maximal.grid_maximal
    tracer = Tracer().install()
    tracer.job = "pass0"
    try:
        maximal.superlevel(np.array([True, False, False, True]), 0.5)
    finally:
        tracer.uninstall()
    assert maximal.grid_maximal is original
    names = [s[0] for s in tracer.spans]
    assert names[:2] == ["maximal.superlevel", "maximal.grid_maximal"]
    assert tracer.spans[1][3] == 0
    assert tracer.spans[1][5]["maximal.grid_maximal.windows"] == 4 + 3 + 2 + 1
