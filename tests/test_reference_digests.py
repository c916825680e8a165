"""Every benchmark job at seed 0 reproduces the output digest checked in
under perfbench/reference/, so a change of results shows up in the test
suite and not only in a benchmark run.  Each job list runs twice: the first
pass builds every measure's remembered maximal stage, the second reads it, as
the benchmark's later passes do.  A third pass runs under the benchmark's
tracer, which wraps library functions and methods by name, as a traced
benchmark run does.  The benchmark files are only read."""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed0_digests_match_reference(name):
    reference = json.loads((PERFBENCH / "reference" / f"{name}.json").read_text())
    assert reference["seed"] == 0
    jobs = workloads.WORKLOADS[name].jobs(0)
    for _ in range(2):
        assert {job.name: workloads.digest(job.run()) for job in jobs} == reference["jobs"]
    traced = tracer.Tracer().install()
    try:
        assert {job.name: workloads.digest(job.run()) for job in jobs} == reference["jobs"]
    finally:
        traced.uninstall()
    assert traced.spans
