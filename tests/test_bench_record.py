"""The benchmark record: the parser of ``tools/bench_record.py`` on a canned
runner output, and the keys of every ``BENCH_*.json`` at the root.  The
benchmark itself never runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

# one `python3 bench/run.py --workload all --seconds 1` stdout, trimmed to two workloads
CANNED = """\
environment: python=3.11.7, numpy=2.4.6, scipy=1.17.1, blas_threads=1, nproc=2
workload defaults, seed 0, trace 0: 11 invocations, 0 failed
  setup_s                                 0.0994862 s      median of 5 imports
  wall_rel                                  3.92752 ref    wall_s over reference_s
  peak_rss_mb                               58.8125 MB     max over children
  wall_s                                    1.74193 s      median of 1 passes
  reference_s                              0.443518 s      median of 1 reference jobs
  invocation_p50_s                         0.153881 s      n=11
  failed_ratio                                    0 ratio
{"correct": true, "attempted": 11, "failed": 0, "metrics": {"setup_s": {"value": 0.09948615200119093, "unit": "s"}, "wall_rel": {"value": 3.927519540375762, "unit": "ref"}, "peak_rss_mb": {"value": 58.8125, "unit": "MB"}}}
workload link, seed 0, trace 0: 3 invocations, 0 failed
  setup_s                                 0.0665641 s      median of 5 imports
  wall_rel                                  2.42522 ref    wall_s over reference_s
  peak_rss_mb                               68.7031 MB     max over children
  wall_s                                    1.00777 s      median of 1 passes
  reference_s                              0.415536 s      median of 1 reference jobs
  slices_per_s                               454443 1/s
{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.0665640719998919, "unit": "s"}, "wall_rel": {"value": 2.42522292901364, "unit": "ref"}, "peak_rss_mb": {"value": 68.703125, "unit": "MB"}}}
"""
METRICS = {"setup_s", "wall_rel", "peak_rss_mb"}


def test_the_parser_reads_each_workloads_result_line_and_printed_times():
    run = bench_record.parse_run(CANNED)
    assert run["environment"] == ("python=3.11.7, numpy=2.4.6, scipy=1.17.1, blas_threads=1, "
                                  "nproc=2")
    assert list(run["workloads"]) == ["defaults", "link"]
    link = run["workloads"]["link"]
    assert link["result"]["metrics"]["wall_rel"]["value"] == 2.42522292901364
    assert (link["wall_s"], link["reference_s"]) == (1.00777, 0.415536)
    second = bench_record.parse_run(CANNED.replace("0.0665640719998919", "0.5"))
    assert bench_record.medians([run, run, second])["link"]["setup_s"] == 0.0665640719998919


@pytest.mark.parametrize("cut", ["  wall_s  ", "{", "environment: "])
def test_the_parser_refuses_an_output_that_lacks_a_line(cut):
    lines = [line for line in CANNED.splitlines() if not line.startswith(cut)]
    with pytest.raises(ValueError):
        bench_record.parse_run("\n".join(lines))


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_every_bench_record_parses_and_has_its_keys(path):
    doc = json.loads(path.read_text())
    assert set(doc) >= {"command", "commits", "environment", "pairs", "medians"}
    assert set(doc["commits"]) == {"parent", "change"}
    assert len(doc["pairs"]) >= 4
    assert [pair["first"] for pair in doc["pairs"]][:2] == ["parent", "change"]
    for pair in doc["pairs"]:
        for side in ("parent", "change"):
            assert set(pair[side]) == set(doc["medians"][side])
            for workload in pair[side].values():
                assert set(workload) == {"result", "wall_s", "reference_s"}
                assert set(workload["result"]["metrics"]) >= METRICS
    for side in ("parent", "change"):
        for medians in doc["medians"][side].values():
            assert set(medians) >= METRICS | {"wall_s", "reference_s", "failed"}
