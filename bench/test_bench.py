"""Self-test of the benchmark at reduced sizes.

Run from the repository root with ``python3 -m pytest bench``.
"""

import json

import pytest

import workloads

workloads.pin_blas_threads()

import run      # noqa: E402  (after pinning, before anything imports numpy)
import tracer   # noqa: E402

SEED = workloads.REFERENCE_SEED
SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_repeats_counts_and_matches_subprocess_reports(workload):
    invs = workloads.invocations(workload, SEED, small=True)
    records = run.run_pass(invs, workloads.workdir(workload), workloads.references())
    assert [r["error"] for r in records] == [None] * len(invs)

    first = tracer.traced_run(workload, SEED, small=True)
    second = tracer.traced_run(workload, SEED, small=True)
    assert first["errors"] == [None] * len(invs)
    assert first["hashes"] == [r["digest"] for r in records]
    assert first["tracer"].counts == second["tracer"].counts
    counts = [m for m in first["metrics"]
              if tracer.unit(m) in ("count", "bytes", "bytes_computed")]
    assert len(counts) == 12
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    assert sorted(first["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])


def test_measure_reports_every_end_to_end_metric():
    result = run.measure("link", SEED, seconds=0, small=True)
    assert result["errors"] == []
    names = [name for name, *_ in result["table"]]
    assert names == [m["name"] for m in SPEC["end_to_end"]]
    assert all(value > 0 for _, value, *_ in result["table"])


def _write(tmp_path, report):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    return path


def test_gate_rejects_nan_and_nonzero_exit(tmp_path):
    path = _write(tmp_path, {"metrics": {"x": float("nan")}, "series": {}})
    assert "invalid report" in workloads.check_report(0, path)[2]
    path = _write(tmp_path, {"metrics": {"x": 1.0}, "series": {}})
    assert workloads.check_report(0, path)[2] is None
    assert workloads.check_report(1, path)[2] == "exit status 1"
    assert workloads.check_report(0, path, expected="0" * 64)[2] is not None


def test_hash_ignores_config_and_checks():
    base = {"metrics": {"x": 0.1}, "series": {"t": [1, 2]}}
    extended = dict(base, config={"seed": 3}, checks=[{"name": "x", "ok": True}])
    assert workloads.report_hash(base) == workloads.report_hash(extended)
    assert workloads.report_hash(base) != workloads.report_hash(dict(base, metrics={"x": 0.2}))


def test_seed_derivation_is_deterministic():
    for workload in workloads.WORKLOADS:
        assert workloads.invocations(workload, 5) == workloads.invocations(workload, 5)
    assert workloads.invocations("link", 5) != workloads.invocations("link", 6)
