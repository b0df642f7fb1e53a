import json
import math

import numpy as np
import pytest

from altcausal import photonclock, piflink
from altcausal.cli import _EXPERIMENTS, build_parser, main, write_json

FAST_ARGS = {
    "duality": ["--points", "9"],
    "switch": ["--points", "5"],
    "ac-vs-ico": ["--steps", "4"],
    "photonclock": ["--bounces", "8"],
    "cascade": ["--sites", "3", "--horizon", "9"],
    "wfecho": [],
    "pif": ["--slices", "50"],
    "fito-vs-pif": ["--slices", "50"],
    "capacity": ["--n-bits", "2000"],
    "rcp": ["--points", "9"],
    "list": [],
}


@pytest.mark.parametrize("command", sorted(FAST_ARGS))
def test_every_experiment_exits_zero(command, capsys):
    assert main([command, *FAST_ARGS[command]]) == 0
    out = capsys.readouterr().out
    assert f"experiment: {command}" in out or command == "list"


def test_no_command_prints_help_and_exits_two(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out


def test_unknown_experiment_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_bad_domain_input_exits_one(capsys):
    assert main(["cascade", "--sites", "40"]) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_format_exits_one(tmp_path, capsys):
    assert main(["wfecho", "--format", "bogus", "--out", str(tmp_path)]) == 1
    assert "unknown output format" in capsys.readouterr().err


def test_json_to_stdout_suppresses_summary(capsys):
    assert main(["wfecho", "--json", "-"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["experiment"] == "wfecho"
    assert "experiment: wfecho" not in out


def test_json_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["pif", "--slices", "200", "--flip-forward", "0.01", "--seed", "42"]
    assert main([*args, "--json", str(a)]) == 0
    assert main([*args, "--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"flip_forward": 0.5, "flip_backward": 0.5}))
    out = tmp_path / "r.json"
    assert main(["capacity", "--config", str(cfg), "--n-bits", "1000",
                 "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["metrics"]["c_one_way"] == 0.0
    assert report["config"]["n_bits"] == 1000


def test_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"flip_forward": 0.5, "flip_backward": 0.5}))
    out = tmp_path / "r.json"
    assert main(["capacity", "--config", str(cfg), "--flip-forward", "0.0",
                 "--flip-backward", "0.0", "--n-bits", "1000", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["metrics"]["c_one_way"] == 64.0
    assert report["metrics"]["c_pif"] == 128.0


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"warp_factor": 9}))
    assert main(["capacity", "--config", str(cfg)]) == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_csv_has_header_and_one_row_per_point(tmp_path):
    path = tmp_path / "d.csv"
    assert main(["duality", "--points", "12", "--csv", str(path)]) == 0
    lines = path.read_text().strip().splitlines()
    assert "t" in lines[0].split(",")
    assert "deviation" in lines[0].split(",")
    assert len(lines) == 13


def test_svg_is_written(tmp_path):
    path = tmp_path / "d.svg"
    assert main(["rcp", "--points", "9", "--svg", str(path)]) == 0
    text = path.read_text()
    assert text.startswith("<svg")
    assert "polyline" in text


def test_out_dir_format_list(tmp_path):
    assert main(["wfecho", "--format", "json,csv", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "wfecho.json").exists()
    assert (tmp_path / "wfecho.csv").exists()


@pytest.mark.parametrize("command", sorted(FAST_ARGS))
def test_all_three_formats_for_every_experiment(command, tmp_path):
    args = [command, *FAST_ARGS[command], "--format", "json,csv,svg",
            "--out", str(tmp_path)]
    assert main(args) == 0
    for ext in ("json", "csv", "svg"):
        assert (tmp_path / f"{command}.{ext}").exists()
    # a report with no series still yields a well-formed placeholder svg
    assert (tmp_path / f"{command}.svg").read_text().startswith("<svg")


def test_list_names_every_experiment(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in _EXPERIMENTS:
        assert name in out


def test_parser_covers_every_experiment():
    parser = build_parser()
    actions = [a for a in parser._actions if hasattr(a, "choices") and a.choices]
    commands = set(actions[0].choices)
    assert set(_EXPERIMENTS) | {"list"} <= commands


def test_clean_pif_balances_exactly(tmp_path):
    out = tmp_path / "pif.json"
    assert main(["pif", "--slices", "500", "--json", str(out)]) == 0
    metrics = json.loads(out.read_text())["metrics"]
    assert metrics["delta_s"] == 0.0
    assert metrics["landauer_joules"] == 0.0
    assert metrics["conservation_violation"] == 0.0
    assert metrics["detected_mismatches"] == 0


@pytest.mark.parametrize("command", ["pif", "fito-vs-pif"])
@pytest.mark.parametrize("temperature", ["nan", "inf", "-inf"])
def test_non_finite_link_temperature_exits_one(command, temperature, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main([command, "--slices", "50", f"--temperature={temperature}",
                 "--json", str(out)]) == 1
    assert "temperature must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_json_writer_refuses_non_finite_values(tmp_path):
    out = tmp_path / "r.json"
    for bad in (math.nan, math.inf, np.float64(-np.inf)):
        with pytest.raises(ValueError):
            write_json({"metrics": {"x": bad}}, str(out))
    assert not out.exists()


def test_non_finite_report_exits_one_without_a_file(tmp_path, capsys):
    out = tmp_path / "r.json"
    # a finite input whose classical_time_seconds overflows to inf
    assert main(["photonclock", "--tick-seconds", "1e308", "--json", str(out)]) == 1
    assert "not JSON compliant" in capsys.readouterr().err
    assert not out.exists()


def test_fito_cumulative_cost_is_a_running_sum(tmp_path):
    out = tmp_path / "f.json"
    assert main(["fito-vs-pif", "--slices", "300", "--seed", "4", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    rep = piflink.run_link(piflink.LinkConfig(
        slice_count=300, bit_flip_forward=0.05, rng_seed=4, mode=piflink.LinkMode.FITO))
    running, expected = 0.0, []
    for cost in rep.cycles.landauer_joules.tolist():
        running += cost
        expected.append(running)
    assert report["series"]["fito_landauer_cumulative"] == expected
    assert expected[-1] == report["metrics"]["fito_landauer_joules"]


def test_duality_deviation_is_tiny(tmp_path):
    out = tmp_path / "dual.json"
    assert main(["duality", "--points", "16", "--json", str(out)]) == 0
    metrics = json.loads(out.read_text())["metrics"]
    assert metrics["max_duality_deviation"] < 1e-12
    assert metrics["valid_at_origin"] is True


def test_skewed_duality_is_reported_not_flagged(tmp_path):
    out = tmp_path / "skew.json"
    assert main(["duality", "--points", "16", "--skew", "1e-3",
                 "--json", str(out)]) == 0
    metrics = json.loads(out.read_text())["metrics"]
    assert 5e-4 <= metrics["max_duality_deviation"] <= 2e-3


# Each case: experiment arguments, config file contents (None for no file),
# and the parameter the error message must name.
REJECTED = [
    (["duality"], [1, 2], "config"),
    (["duality"], {"points": "25"}, "points"),
    (["ac-vs-ico"], {"noise": "0.3"}, "noise"),
    (["duality"], {"seed": "7"}, "seed"),
    (["duality"], {"seed": None}, "seed"),
    (["duality"], {"dim": 2.5}, "dim"),
    (["duality"], {"phase_mode": "sideways"}, "phase_mode"),
    (["photonclock"], {"bounces": True}, "bounces"),
    (["photonclock", "--bounces", "-5"], None, "bounces"),
    (["photonclock", "--tick-seconds", "nan"], None, "tick_seconds"),
    (["photonclock", "--tick-seconds", "-1"], None, "tick_seconds"),
    (["rcp", "--epsilon", "nan"], None, "epsilon"),
    (["rcp", "--tmax", "inf"], None, "tmax"),
    (["duality", "--omega", "nan"], None, "omega"),
    (["switch", "--points", "0"], None, "points"),
    (["duality", "--skew", "-1"], None, "skew"),
    (["wfecho", "--transmitted", "nan"], None, "transmitted"),
]


@pytest.mark.parametrize("args, config, param", REJECTED,
                         ids=[f"{a[0]}-{p}-{i}" for i, (a, _, p) in enumerate(REJECTED)])
def test_bad_input_is_rejected_at_the_boundary(args, config, param, tmp_path, capsys):
    extra = []
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        extra = ["--config", str(cfg)]
    out = tmp_path / "r.json"
    assert main([*args, *extra, "--json", str(out)]) == 1
    assert param in capsys.readouterr().err
    assert not out.exists()


def test_json_int_for_a_float_option_is_stored_as_float(tmp_path):
    cfg, a, b = tmp_path / "cfg.json", tmp_path / "a.json", tmp_path / "b.json"
    cfg.write_text(json.dumps({"omega": 1}))
    assert main(["duality", "--points", "9", "--config", str(cfg), "--json", str(a)]) == 0
    assert main(["duality", "--points", "9", "--omega", "1", "--json", str(b)]) == 0
    from_file, from_flag = json.loads(a.read_text()), json.loads(b.read_text())
    assert '"omega": 1.0' in a.read_text()
    assert from_file["metrics"] == from_flag["metrics"]


@pytest.mark.parametrize("command", sorted(FAST_ARGS))
def test_every_report_lists_its_checks(command, tmp_path):
    out = tmp_path / "r.json"
    assert main([command, *FAST_ARGS[command], "--json", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert isinstance(checks, list)
    assert command == "list" or checks
    for check in checks:
        assert set(check) == {"name", "value", "tol", "ok"}
        assert check["ok"] is True


def test_failed_check_is_reported_and_exits_one(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(photonclock, "wf_echo", lambda alpha, i_transmitted: (1.0, i_transmitted))
    out = tmp_path / "r.json"
    assert main(["wfecho", "--json", str(out)]) == 1
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["echo_balance"]["ok"] is False
    assert "invariant violated: echo_balance" in capsys.readouterr().err
