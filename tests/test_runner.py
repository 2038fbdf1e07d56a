import json
import tracemalloc
import weakref

import numpy as np
import pytest

from qwbutterfly import (
    ConfigError,
    Graph,
    NoiseSpec,
    ScenarioConfig,
    WalkOperator,
    apply_channel_mixed,
    build_butterfly,
    build_path,
    coherence_l1,
    export,
    export_sweep,
    fidelity_with_pure,
    receiver_state,
    rtn_modulation,
    run_scenario,
    sender_state,
    summarize,
    sweep_placements,
)
from qwbutterfly import runner as runner_mod
from qwbutterfly import walk as walk_mod
from qwbutterfly.runner import CSV_HEADER, TIE_DECIMALS, evaluate_reference_tables

P2 = build_path(2)
B1 = build_butterfly(P2, 1)
B3_P2 = build_butterfly(P2, 3)
B3_P3 = build_butterfly(build_path(3), 3)


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


@pytest.mark.parametrize("field,value", [
    ("sender", 1), ("receiver", 1), ("graph", B1), ("sendr", 1),
])
def test_sweep_config_errors_name_the_field(field, value):
    with pytest.raises(ConfigError, match=f"^{field}:"):
        sweep_placements(B1, **{field: value})


def test_disconnected_graph_is_rejected():
    g = Graph(4, ((0, 1), (2, 3)))
    with pytest.raises(ConfigError, match="graph"):
        run_scenario(ScenarioConfig(graph=g, sender=0, receiver=2))


def test_non_graph_is_a_config_error():
    with pytest.raises(ConfigError, match="graph"):
        run_scenario(ScenarioConfig(graph="x", sender=0, receiver=1))
    with pytest.raises(ConfigError, match="graph"):
        sweep_placements("x")


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


def _rank(summaries):
    return sorted(summaries, key=lambda rs: (-round(rs.average_fidelity, TIE_DECIMALS),
                                             rs.sender, rs.receiver))


def test_sweep_ranks_near_ties_by_sender_then_receiver():
    summaries = sweep_placements(B3_P3)
    near = [(a, b) for a, b in zip(summaries, summaries[1:])
            if abs(a.average_fidelity - b.average_fidelity) <= 1e-12]
    assert len(near) > 100
    assert all((a.sender, a.receiver) < (b.sender, b.receiver) for a, b in near)
    # the reported averages are not rounded; near ties differ in their last bits
    assert any(a.average_fidelity != b.average_fidelity for a, b in near)
    assert summaries == _rank(summaries)


NOISES = [NoiseSpec(), NoiseSpec.rtn(0.1, 0.01), NoiseSpec.oun(1.0, 0.05),
          NoiseSpec.nmad(0.3, 0.05)]


@pytest.mark.parametrize("mode", ["snapshot", "stepwise"])
@pytest.mark.parametrize("spec", NOISES, ids=lambda s: s.family)
@pytest.mark.parametrize("graph", [B1, B3_P2], ids=["B1", "B3_P2"])
def test_batched_sweep_matches_per_pair_runs(graph, spec, mode):
    fields = dict(steps=40, noise=spec, noise_mode=mode, peak_threshold=0.3)
    swept = sweep_placements(graph, **fields)
    runs = {(s, r): run_scenario(ScenarioConfig(graph=graph, sender=s, receiver=r, **fields))
            for s in range(graph.n) for r in range(graph.n) if s != r}
    assert len(swept) == len(runs)
    for got in swept:
        res = runs[(got.sender, got.receiver)]
        want, series = res.summary, res.fidelity_noisy
        assert abs(got.average_fidelity - want.average_fidelity) <= 1e-12
        assert abs(got.max_fidelity - want.max_fidelity) <= 1e-12
        assert series[got.argmax_t - 1] >= want.max_fidelity - 1e-12
        for t in set(got.peak_times) ^ set(want.peak_times):
            assert abs(series[t - 1] - 0.3) <= 1e-12
        assert (got.noise_family, got.peak_threshold) == (spec.family, 0.3)
    ranked = _rank(res.summary for res in runs.values())
    assert [(s.sender, s.receiver) for s in swept] == [(s.sender, s.receiver) for s in ranked]


def test_sweep_in_chunks_matches_one_batch(monkeypatch):
    evolve_batch = runner_mod._evolve
    chunks = []

    def counted(walk, cfg, pairs):
        chunks.append(len(pairs))
        return evolve_batch(walk, cfg, pairs)

    monkeypatch.setattr(runner_mod, "_evolve", counted)
    # B3_P2 has arc dim 20 and 56 pairs; a snapshot pair holds one state, a
    # stepwise pair one density matrix; an entry takes 16 bytes where the
    # channel's diagonals are complex (rtn) and 8 where they are real (nmad)
    for spec, mode, itemsize in [(NoiseSpec.rtn(0.1, 0.01), "stepwise", 16),
                                 (NoiseSpec.nmad(0.3, 0.05), "stepwise", 8),
                                 (NoiseSpec.nmad(0.3, 0.05), "snapshot", 8),
                                 (NoiseSpec.rtn(0.1, 0.01), "snapshot", 16),
                                 (NoiseSpec(), "snapshot", 8)]:
        fields = dict(steps=30, noise=spec, noise_mode=mode)
        with monkeypatch.context() as m:
            m.setattr(runner_mod, "BATCH_STATE_BYTES", 10 ** 9)
            whole = sweep_placements(B3_P2, **fields)
        assert chunks == [56]
        chunks.clear()
        pair_bytes = itemsize * 20 ** (2 if mode == "stepwise" else 1)
        with monkeypatch.context() as m:
            m.setattr(runner_mod, "BATCH_STATE_BYTES", 3 * pair_bytes)  # 3 pairs a chunk
            assert sweep_placements(B3_P2, **fields) == whole
        assert chunks == [3] * 18 + [2]
        chunks.clear()


@pytest.mark.parametrize("spec,mode", [(NoiseSpec.rtn(0.1, 0.01), "stepwise"),
                                       (NoiseSpec.nmad(0.3, 0.05), "stepwise"),
                                       (NoiseSpec.rtn(0.1, 0.01), "snapshot"),
                                       (NoiseSpec(), "snapshot")],
                         ids=lambda v: getattr(v, "family", v))
def test_chunks_bound_the_stepped_arrays_and_their_bins(monkeypatch, spec, mode):
    step, bins_for = WalkOperator.step, WalkOperator._bins_for
    sizes = []

    def step_sized(self, psi):
        sizes.append(np.asarray(psi).nbytes)
        return step(self, psi)

    def bins_sized(self, rows, parts):
        bins = bins_for(self, rows, parts)
        sizes.append(bins.nbytes)
        return bins

    monkeypatch.setattr(WalkOperator, "step", step_sized)
    monkeypatch.setattr(WalkOperator, "_bins_for", bins_sized)
    monkeypatch.setattr(runner_mod, "BATCH_STATE_BYTES", 20_000)
    sweep_placements(B3_P2, steps=5, noise=spec, noise_mode=mode)
    assert 0 < max(sizes) <= 20_000


@pytest.mark.parametrize("spec,mode", [(NoiseSpec(), "snapshot"),
                                       (NoiseSpec.rtn(0.1, 0.01), "snapshot"),
                                       (NoiseSpec.oun(1.0, 0.05), "snapshot"),
                                       (NoiseSpec.nmad(0.3, 0.05), "snapshot"),
                                       (NoiseSpec.nmad(0.3, 0.05), "stepwise")],
                         ids=lambda v: getattr(v, "family", v))
def test_runs_sweeps_and_tables_step_real_arrays(monkeypatch, spec, mode):
    step = WalkOperator.step
    stepped = []

    def real_only(self, psi):
        assert not np.iscomplexobj(psi), "a complex array reached WalkOperator.step"
        stepped.append(psi.dtype)
        return step(self, psi)

    monkeypatch.setattr(WalkOperator, "step", real_only)
    fields = dict(steps=20, noise=spec, noise_mode=mode)
    run_scenario(ScenarioConfig(graph=B3_P2, sender=5, receiver=6, **fields))
    sweep_placements(B3_P2, **fields)
    if spec.family == "none":
        evaluate_reference_tables(steps=20, receiver_convention="outgoing")
    assert set(stepped) == {np.dtype(np.float64)}


def test_sweep_assembles_once_per_graph(monkeypatch):
    calls = []
    assemble = WalkOperator.assemble.__func__

    def counted(cls, *args):
        calls.append(args)
        return assemble(cls, *args)

    def refuse(cfg):
        raise AssertionError("batched path fell back to run_scenario")

    monkeypatch.setattr(WalkOperator, "assemble", classmethod(counted))
    monkeypatch.setattr(runner_mod, "run_scenario", refuse)
    assert len(sweep_placements(B3_P3, steps=20)) == 132
    assert len(calls) == 1
    calls.clear()
    evaluate_reference_tables(steps=20, receiver_convention="outgoing")
    assert len(calls) == len(runner_mod.REFERENCE_TABLES)


@pytest.mark.parametrize("mode", ["snapshot", "stepwise"])
@pytest.mark.parametrize("kind", ["run", "sweep"])
def test_each_kraus_set_is_freed_before_the_next_is_built(monkeypatch, kind, mode):
    kraus = NoiseSpec.kraus
    alive = []

    def tracked(self, t, dim):
        assert all(ref() is None for ref in alive), f"step {t - 1}'s Kraus set is still alive"
        ks = kraus(self, t, dim)
        alive[:] = [weakref.ref(ks), weakref.ref(ks.stack)]
        return ks

    monkeypatch.setattr(NoiseSpec, "kraus", tracked)
    fields = dict(steps=20, noise=NoiseSpec.nmad(0.3, 0.05), noise_mode=mode)
    if kind == "run":
        run_scenario(ScenarioConfig(graph=B3_P2, sender=5, receiver=6, **fields))
    else:
        sweep_placements(B3_P2, **fields)
    assert alive


@pytest.mark.parametrize("spec", [NoiseSpec.rtn(0.1, 0.01), NoiseSpec.oun(1.0, 0.05)],
                         ids=lambda s: s.family)
def test_dephasing_snapshot_run_builds_no_dim_squared_array(spec):
    graph = build_butterfly(build_path(10), 20)
    dim = WalkOperator.assemble(graph, 3, 100).basis.dim
    assert dim == 778
    tracemalloc.start()
    try:
        run_scenario(ScenarioConfig(graph=graph, sender=3, receiver=100, steps=10, noise=spec))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * dim * dim


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


@pytest.mark.parametrize("spec", [NoiseSpec.rtn(0.1, 0.01), NoiseSpec.oun(1.0, 0.05),
                                  NoiseSpec.nmad(0.3, 0.05)], ids=lambda s: s.family)
def test_stepwise_series_match_dense_recomputation(spec):
    steps = 60
    res = run_scenario(ScenarioConfig(graph=B3_P2, sender=5, receiver=6, steps=steps,
                                      noise=spec, noise_mode="stepwise"))
    walk = WalkOperator.assemble(B3_P2, 5, 6)
    u = np.array(walk.evolution)
    psi = sender_state(B3_P2, walk.basis, 5)
    target = receiver_state(B3_P2, walk.basis, 6)
    rho = np.outer(psi, psi.conj())
    for t in range(1, steps + 1):
        rho = apply_channel_mixed(spec.kraus(t, walk.basis.dim), u @ rho @ u.conj().T)
        assert abs(res.fidelity_noisy[t - 1] - fidelity_with_pure(rho, target)) <= 1e-12
        assert abs(res.coherence_noisy[t - 1] - coherence_l1(rho)) <= 1e-12


@pytest.mark.parametrize("spec,mode", [(NoiseSpec(), "snapshot"),
                                       (NoiseSpec.oun(1.0, 0.05), "snapshot"),
                                       (NoiseSpec.oun(1.0, 0.05), "stepwise")])
def test_run_builds_no_dense_walk_matrix(monkeypatch, spec, mode):
    def refuse(*args):
        raise AssertionError("dense walk matrix built on the hot path")

    monkeypatch.setattr(walk_mod, "assemble_coin", refuse)
    monkeypatch.setattr(walk_mod, "assemble_shift", refuse)
    res = run_scenario(ScenarioConfig(graph=B3_P2, sender=5, receiver=6, steps=50,
                                      noise=spec, noise_mode=mode))
    assert res.fidelity.shape == (50,)


@pytest.mark.parametrize("spec,mode", [(NoiseSpec(), "snapshot"),
                                       (NoiseSpec.oun(1.0, 0.05), "snapshot"),
                                       (NoiseSpec.oun(1.0, 0.05), "stepwise")])
def test_sweep_builds_no_dense_walk_matrix(monkeypatch, spec, mode):
    def refuse(*args):
        raise AssertionError("dense walk matrix built on the hot path")

    monkeypatch.setattr(walk_mod, "assemble_coin", refuse)
    monkeypatch.setattr(walk_mod, "assemble_shift", refuse)
    summaries = sweep_placements(B3_P2, steps=20, noise=spec, noise_mode=mode)
    assert len(summaries) == 56


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
