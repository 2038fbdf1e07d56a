import json
import re

import pytest

from qwbutterfly import NoiseDomainError, ScenarioConfig, build_path, write_edge_list
from qwbutterfly.cli import main
from qwbutterfly.noise import FAMILY_PARAMS, param_key


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_basic(capsys, tmp_path):
    csv_path = tmp_path / "series.csv"
    json_path = tmp_path / "summary.json"
    code, out, err = run_cli(capsys, "run", "--seed-path", "2", "--wings", "3",
                             "--sender", "5", "--receiver", "6",
                             "--out-csv", str(csv_path), "--out-json", str(json_path))
    assert code == 0, err
    assert "average fidelity" in out
    assert csv_path.exists() and json_path.exists()
    summary = json.loads(json_path.read_text())
    assert summary["average_fidelity"] == pytest.approx(0.0928, abs=1e-3)


def test_run_requires_sender(capsys):
    code, _, err = run_cli(capsys, "run", "--seed-path", "2", "--receiver", "1")
    assert code == 2
    assert "sender" in err


def test_run_rejects_equal_endpoints(capsys):
    code, _, err = run_cli(capsys, "run", "--seed-path", "2", "--wings", "1",
                           "--sender", "1", "--receiver", "1")
    assert code == 2
    assert "receiver" in err


def test_run_requires_a_graph_source(capsys):
    code, _, err = run_cli(capsys, "run", "--sender", "0", "--receiver", "1")
    assert code == 2
    assert "graph" in err


def test_run_rejects_two_graph_sources(capsys, tmp_path):
    gpath = tmp_path / "g.txt"
    write_edge_list(build_path(3), gpath)
    code, _, err = run_cli(capsys, "run", "--seed-path", "2", "--graph-file", str(gpath),
                           "--sender", "0", "--receiver", "1")
    assert code == 2


def test_run_from_graph_file(capsys, tmp_path):
    gpath = tmp_path / "g.txt"
    write_edge_list(build_path(4), gpath)
    code, out, _ = run_cli(capsys, "run", "--graph-file", str(gpath),
                           "--sender", "0", "--receiver", "3", "--steps", "50")
    assert code == 0
    assert "4 vertices, 3 edges" in out


def test_run_rejects_disconnected_graph_file(capsys, tmp_path):
    gpath = tmp_path / "g.txt"
    gpath.write_text("n 3\n0 1\n")
    code, _, err = run_cli(capsys, "run", "--graph-file", str(gpath),
                           "--sender", "0", "--receiver", "2")
    assert code == 2
    assert "connected" in err


def test_run_with_noise_defaults(capsys):
    code, out, _ = run_cli(capsys, "run", "--seed-path", "2", "--wings", "3",
                           "--sender", "5", "--receiver", "6", "--noise", "rtn")
    assert code == 0
    assert "noise rtn" in out


def test_run_rejects_bad_noise_parameter(capsys):
    code, _, err = run_cli(capsys, "run", "--seed-path", "2", "--wings", "1",
                           "--sender", "0", "--receiver", "1",
                           "--noise", "rtn", "--rtn-a", "-3")
    assert code == 2
    assert "noise" in err


def test_scenario_file_with_flag_override(capsys, tmp_path):
    scenario = {
        "seed_path": 2, "wings": 3, "sender": 5, "receiver": 6, "steps": 40,
        "noise": "oun", "oun.lambda": 1.0, "oun.gamma": 0.05,
    }
    spath = tmp_path / "scenario.json"
    spath.write_text(json.dumps(scenario))
    code, out, _ = run_cli(capsys, "run", "--scenario", str(spath))
    assert code == 0
    assert "sender 5 -> receiver 6" in out and "noise oun" in out
    # flags take precedence over file fields
    code, out, _ = run_cli(capsys, "run", "--scenario", str(spath), "--receiver", "4")
    assert code == 0
    assert "sender 5 -> receiver 4" in out


def test_scenario_file_rejects_unknown_field(capsys, tmp_path):
    spath = tmp_path / "scenario.json"
    spath.write_text(json.dumps({"sender": 0, "receiver": 1, "walker": 3}))
    code, _, err = run_cli(capsys, "run", "--scenario", str(spath), "--seed-path", "2")
    assert code == 2
    assert "walker" in err


@pytest.mark.parametrize("field,file_fields,flags", [
    ("noise", {"noise": "bogus"}, []),
    ("noise", {"noise": ["rtn"]}, []),
    ("steps", {"steps": 2.7}, []),
    ("wings", {"wings": 1.9}, []),
    ("seed_path", {"seed_path": 2.0}, []),
    ("seed_path", {"seed_path": True}, []),
    ("graph_file", {"seed_path": None, "graph_file": 3}, []),
    ("sender", {"sender": True}, []),
    ("receiver", {"receiver": "1"}, []),
    ("rtn.a", {"noise": "rtn", "rtn.a": "0.2"}, []),
    ("rtn.a", {}, ["--noise", "rtn", "--rtn-a", "inf"]),
    ("oun.lambda", {"noise": "oun", "oun.lambda": float("nan")}, []),
    ("peak_threshold", {}, ["--peak-threshold", "nan"]),
    ("peak_threshold", {}, ["--peak-threshold", "1.5"]),
])
def test_bad_scenario_values_are_config_errors(capsys, tmp_path, field, file_fields, flags):
    scenario = {"seed_path": 2, "wings": 1, "sender": 0, "receiver": 2, "steps": 20}
    spath = tmp_path / "scenario.json"
    spath.write_text(json.dumps({**scenario, **file_fields}))
    code, _, err = run_cli(capsys, "run", "--scenario", str(spath), *flags)
    assert code == 2, err
    assert field in err


def test_run_help_defaults_come_from_the_schema(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    shown = {}
    for chunk in re.split(r" (?=--[a-z])", text):
        match = re.search(r"\(default ([^)]+)\)", chunk)
        if match:
            shown[chunk.split()[0]] = match.group(1)
    expected = {
        "--wings": 0,  # graph option, not a ScenarioConfig field
        "--steps": ScenarioConfig.steps,
        "--noise": ScenarioConfig.noise.family,
        "--receiver-convention": ScenarioConfig.receiver_convention,
        "--noise-mode": ScenarioConfig.noise_mode,
        "--peak-threshold": ScenarioConfig.peak_threshold,
    }
    for family, params in FAMILY_PARAMS.items():
        for name, value in params.items():
            expected["--" + param_key(family, name).replace(".", "-")] = value
    assert set(shown) == set(expected)
    for flag, value in expected.items():
        assert shown[flag] == (f"{value:g}" if isinstance(value, float) else str(value)), flag


def test_dump_operators(capsys):
    code, out, _ = run_cli(capsys, "run", "--seed-path", "2",
                           "--sender", "0", "--receiver", "1",
                           "--steps", "5", "--dump-operators")
    assert code == 0
    assert "# coin 2x2" in out and "# shift 2x2" in out and "# evolution 2x2" in out
    assert "-1+0i" in out and "0+0i" in out


def test_sweep_lists_all_ordered_pairs(capsys, tmp_path):
    jpath = tmp_path / "sweep.json"
    code, out, _ = run_cli(capsys, "sweep", "--seed-path", "2", "--wings", "1",
                           "--steps", "100", "--out-json", str(jpath))
    assert code == 0
    assert out.count("->") >= 12
    data = json.loads(jpath.read_text())
    assert len(data) == 12


def test_tables_reports_small_residuals(capsys):
    code, out, _ = run_cli(capsys, "tables")
    assert code == 0
    assert out.count("==") == 3
    worst = float(out.strip().splitlines()[-1].split("=")[-1])
    assert worst < 1e-3


def test_noise_domain_error_maps_to_exit_code_3(capsys, monkeypatch):
    import qwbutterfly.cli as cli_mod

    def boom(cfg):
        raise NoiseDomainError("kernel left its range")

    monkeypatch.setattr(cli_mod, "run_scenario", boom)
    code, _, err = run_cli(capsys, "run", "--seed-path", "2",
                           "--sender", "0", "--receiver", "1")
    assert code == 3
    assert "numeric-domain" in err
