import json

import numpy as np
import pytest

from qwbutterfly import (
    ConfigError,
    Graph,
    NoiseSpec,
    ScenarioConfig,
    build_butterfly,
    build_path,
    export,
    export_sweep,
    rtn_modulation,
    run_scenario,
    summarize,
    sweep_placements,
)
from qwbutterfly.runner import CSV_HEADER

P2 = build_path(2)
B1 = build_butterfly(P2, 1)
B3_P2 = build_butterfly(P2, 3)


def test_p2_alternating_fidelity():
    res = run_scenario(ScenarioConfig(graph=P2, sender=0, receiver=1, steps=10))
    np.testing.assert_allclose(res.fidelity, [1, 0] * 5, atol=1e-14)
    assert res.summary.argmax_t == 1
    assert res.summary.average_fidelity == pytest.approx(0.5)


def test_summary_of_noiseless_run_equals_noisy_columns():
    res = run_scenario(ScenarioConfig(graph=B1, sender=1, receiver=2, steps=40))
    np.testing.assert_array_equal(res.fidelity, res.fidelity_noisy)
    np.testing.assert_array_equal(res.coherence, res.coherence_noisy)


@pytest.mark.parametrize("field,cfg_kwargs", [
    ("sender", dict(sender=9, receiver=1)),
    ("receiver", dict(sender=0, receiver=9)),
    ("receiver", dict(sender=1, receiver=1)),
    ("steps", dict(sender=0, receiver=1, steps=0)),
    ("receiver_convention", dict(sender=0, receiver=1, receiver_convention="both")),
    ("noise_mode", dict(sender=0, receiver=1, noise_mode="never")),
    ("steps", dict(sender=0, receiver=1, steps=2.5)),
    ("sender", dict(sender=True, receiver=2)),
    ("receiver", dict(sender=0, receiver="1")),
    ("peak_threshold", dict(sender=0, receiver=1, peak_threshold=float("nan"))),
    ("peak_threshold", dict(sender=0, receiver=1, peak_threshold=1.5)),
    ("peak_threshold", dict(sender=0, receiver=1, peak_threshold="0.5")),
    ("noise", dict(sender=0, receiver=1, noise="rtn")),
])
def test_config_errors_name_the_field(field, cfg_kwargs):
    cfg = ScenarioConfig(graph=B1, **cfg_kwargs)
    with pytest.raises(ConfigError, match=field):
        run_scenario(cfg)


def test_disconnected_graph_is_rejected():
    g = Graph(4, ((0, 1), (2, 3)))
    with pytest.raises(ConfigError, match="graph"):
        run_scenario(ScenarioConfig(graph=g, sender=0, receiver=2))


def test_receiver_conventions_are_one_step_apart():
    # incoming series at t equals the outgoing series at t-1
    out = run_scenario(ScenarioConfig(graph=B3_P2, sender=5, receiver=6, steps=60,
                                      receiver_convention="outgoing"))
    inc = run_scenario(ScenarioConfig(graph=B3_P2, sender=5, receiver=6, steps=60,
                                      receiver_convention="incoming"))
    np.testing.assert_allclose(inc.fidelity[1:], out.fidelity[:-1], atol=1e-12)
    assert inc.fidelity[0] == pytest.approx(0.0, abs=1e-12)


def test_summarize_earliest_argmax_and_peaks():
    s = summarize(np.array([0.1, 0.9, 0.3, 0.9]), 0, 1, threshold=0.8, noise_family="none")
    assert s.argmax_t == 2
    assert s.peak_times == (2, 4)
    assert s.max_fidelity == pytest.approx(0.9)


def test_sweep_on_p2_is_symmetric():
    summaries = sweep_placements(P2, steps=50)
    assert len(summaries) == 2
    assert summaries[0].average_fidelity == pytest.approx(summaries[1].average_fidelity)


def test_sweep_on_one_wing_butterfly_matches_reference_rows():
    summaries = sweep_placements(B1, steps=200)
    best = summaries[0]
    assert best.average_fidelity == pytest.approx(0.25, abs=1e-3)
    assert (best.sender, best.receiver) in {(0, 3), (3, 0), (1, 2), (2, 1)}
    by_pair = {(s.sender, s.receiver): s.average_fidelity for s in summaries}
    assert by_pair[(0, 1)] == pytest.approx(0.125, abs=1e-3)
    assert by_pair[(1, 2)] == pytest.approx(0.25, abs=1e-3)
    assert by_pair[(0, 2)] == pytest.approx(0.125, abs=1e-3)


def test_sweep_ranking_is_deterministic():
    first = sweep_placements(B1, steps=30)
    second = sweep_placements(B1, steps=30)
    assert [(s.sender, s.receiver) for s in first] == [(s.sender, s.receiver) for s in second]
    # ties within equal averages fall back to (s, r) order
    avgs = [s.average_fidelity for s in first]
    assert avgs == sorted(avgs, reverse=True)


def test_noisy_series_stays_close_where_kernel_is_near_one():
    # two-operator channel: |noisy - clean| <= (1 - kernel)/2 at every step
    spec = NoiseSpec.rtn(0.1, 0.01)
    res = run_scenario(ScenarioConfig(graph=B3_P2, sender=5, receiver=6, steps=200,
                                      noise=spec))
    for t in range(1, 201):
        bound = 0.5 * (1.0 - rtn_modulation(0.1, 0.01, t)) + 1e-12
        assert abs(res.fidelity_noisy[t - 1] - res.fidelity[t - 1]) <= bound


def test_noisy_average_stays_in_unit_interval():
    for spec in (NoiseSpec.rtn(0.1, 0.01), NoiseSpec.oun(1.0, 0.05)):
        res = run_scenario(ScenarioConfig(graph=B3_P2, sender=5, receiver=6, steps=200,
                                          noise=spec))
        assert 0.0 <= res.summary.average_fidelity <= 1.0
        assert np.all(res.fidelity_noisy >= -1e-12)
        assert np.all(res.fidelity_noisy <= 1.0 + 1e-12)


def test_stepwise_mode_differs_from_snapshot():
    spec = NoiseSpec.oun(1.0, 0.05)
    snap = run_scenario(ScenarioConfig(graph=B3_P2, sender=5, receiver=6, steps=60,
                                       noise=spec, noise_mode="snapshot"))
    comp = run_scenario(ScenarioConfig(graph=B3_P2, sender=5, receiver=6, steps=60,
                                       noise=spec, noise_mode="stepwise"))
    np.testing.assert_array_equal(snap.fidelity, comp.fidelity)
    assert not np.allclose(snap.fidelity_noisy, comp.fidelity_noisy)
    assert np.all(comp.fidelity_noisy >= -1e-12)


def test_export_csv_and_json(tmp_path):
    res = run_scenario(ScenarioConfig(graph=P2, sender=0, receiver=1, steps=3))
    csv_path = tmp_path / "series.csv"
    json_path = tmp_path / "summary.json"
    export(res, csv_path=csv_path, json_path=json_path)

    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    for line in lines[1:]:
        t, fid, coh, fid_n, coh_n = line.split(",")
        assert fid == fid_n and coh == coh_n

    summary = json.loads(json_path.read_text())
    assert summary["sender"] == 0 and summary["receiver"] == 1
    assert summary["noise_family"] == "none"
    assert summary["argmax_t"] == 1


def test_export_round_trip_recovers_average(tmp_path):
    res = run_scenario(ScenarioConfig(graph=B3_P2, sender=5, receiver=6, steps=200))
    csv_path = tmp_path / "series.csv"
    json_path = tmp_path / "summary.json"
    export(res, csv_path=csv_path, json_path=json_path)
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    reparsed = np.array([float(r[3]) for r in rows])
    summary = json.loads(json_path.read_text())
    assert abs(reparsed.mean() - summary["average_fidelity"]) < 1e-12


def test_export_is_deterministic(tmp_path):
    cfg = ScenarioConfig(graph=B3_P2, sender=5, receiver=6, steps=120,
                         noise=NoiseSpec.rtn(0.1, 0.01))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    export(run_scenario(cfg), csv_path=a)
    export(run_scenario(cfg), csv_path=b)
    assert a.read_bytes() == b.read_bytes()


def test_export_sweep_json(tmp_path):
    path = tmp_path / "sweep.json"
    export_sweep(sweep_placements(P2, steps=10), path)
    data = json.loads(path.read_text())
    assert len(data) == 2
    assert {"sender", "receiver", "average_fidelity"} <= set(data[0])


def test_export_surfaces_path_errors(tmp_path):
    res = run_scenario(ScenarioConfig(graph=P2, sender=0, receiver=1, steps=2))
    missing_dir = tmp_path / "nope" / "series.csv"
    with pytest.raises(OSError, match="nope"):
        export(res, csv_path=missing_dir)
