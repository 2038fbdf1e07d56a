"""Self-tests of the benchmark harness: python3 -m pytest bench"""

import json
import re

import numpy as np
import pytest

import oracle
import run
import tracing
from workloads import WORKLOADS, Op, Workload, butterfly_edges, make_pass, write_edge_list

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


def run_small(cli, tmp_path, noise, path_n=2, wings=3):
    """Run one small `run` op and return its input and outputs."""
    inp = make_pass(Workload("t", "t", (Op("run", path_n, wings, noise),)), 7, 1, tmp_path)[0]
    _, code, stdout, stderr = run.run_op(cli, inp.argv)
    assert code == 0, stderr
    return inp, stdout, inp.out_csv.read_text(), inp.out_json.read_text()


@pytest.mark.parametrize("noise", ["none", "rtn", "oun", "nmad"])
def test_oracle_accepts_program_and_flags_1e8_perturbation(cli, tmp_path, noise):
    inp, _, csv_text, json_text = run_small(cli, tmp_path, noise)
    assert oracle.check_run(inp, csv_text, json_text) == []

    lines = csv_text.splitlines()
    fields = lines[50].split(",")
    fields[3] = f"{float(fields[3]) + 1e-8:.15e}"          # fidelity_noisy at t = 50
    bad_csv = "\n".join(lines[:50] + [",".join(fields)] + lines[51:])
    assert any("fidelity_noisy" in p for p in oracle.check_run(inp, bad_csv, json_text))

    summary = json.loads(json_text)
    summary["average_fidelity"] += 1e-8
    assert any("average_fidelity" in p
               for p in oracle.check_run(inp, csv_text, json.dumps(summary)))


def test_oracle_flags_perturbed_sweep_and_tables(cli, tmp_path):
    inputs = make_pass(WORKLOADS["sweep-small"], 3, 1, tmp_path)
    _, results = run.run_pass(cli, inputs[:2])
    sweep = inputs[1]
    rows = oracle.reference_rows()
    assert oracle.check_tables(results[0][2], rows) == []
    assert oracle.check_sweep(sweep, sweep.out_json.read_text()) == []

    entries = json.loads(sweep.out_json.read_text())
    entries[5]["max_fidelity"] += 1e-8
    assert oracle.check_sweep(sweep, json.dumps(entries))
    assert oracle.check_tables(results[0][2].replace("0.250000", "0.250010"), rows)


def test_noiseless_averages_invariant_under_relabelling(cli, tmp_path):
    n, edges = butterfly_edges(2, 3)
    perm = list(np.random.default_rng(5).permutation(n))
    relabelled = [(int(perm[u]), int(perm[v])) for u, v in edges]
    averages = []
    for name, es in (("plain", edges), ("relabelled", relabelled)):
        graph, out = tmp_path / f"{name}.graph", tmp_path / f"{name}.json"
        write_edge_list(graph, n, es)
        _, code, _, stderr = run.run_op(cli, ["sweep", "--graph-file", str(graph),
                                              "--out-json", str(out)])
        assert code == 0, stderr
        averages.append({(e["sender"], e["receiver"]): e["average_fidelity"]
                         for e in json.loads(out.read_text())})
    plain, moved = averages
    for (s, r), avg in plain.items():
        assert moved[(int(perm[s]), int(perm[r]))] == pytest.approx(avg, abs=1e-12)
    ours = oracle.sweep_averages(n, relabelled, [(int(perm[s]), int(perm[r])) for s, r in plain])
    assert np.allclose(ours.mean(axis=0), list(plain.values()), rtol=0, atol=1e-12)


def _bindings():
    import sys

    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "qwbutterfly" or name.startswith("qwbutterfly."):
            found.update({(name, k): v for k, v in vars(mod).items()})
    from qwbutterfly.noise import NoiseSpec
    from qwbutterfly.walk import WalkOperator

    for cls in (NoiseSpec, WalkOperator):
        found.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return found


def test_tracer_wraps_caller_bindings_and_restores_every_one(cli, tmp_path):
    import qwbutterfly.metrics
    import qwbutterfly.runner

    before = _bindings()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError, match="boom"):
        with tracer.active():
            assert qwbutterfly.runner.coherence_l1 is not before[("qwbutterfly.runner", "coherence_l1")]
            assert qwbutterfly.metrics.coherence_l1 is not before[("qwbutterfly.metrics", "coherence_l1")]
            run_small(cli, tmp_path, "rtn")
            raise RuntimeError("boom")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert tracer.stat("runner.run_scenario", 0) == 1
    assert tracer.stat("metrics.coherence_l1", 0) == 400
    assert tracer.stat("noise.NoiseSpec.kraus", 0) == 200
    assert tracer.absent == []


def test_tracer_reports_absent_names(monkeypatch):
    monkeypatch.setattr(tracing, "EXPECTED", tracing.EXPECTED + ("walk.gone", "nolayer.f"))
    tracer = tracing.Tracer()
    with tracer.active():
        pass
    assert tracer.absent == ["walk.gone", "nolayer.f"]


def test_traced_measurement_reports_every_per_layer_metric(cli, tmp_path):
    workload = Workload("t", "t", (Op("run", 2, 3, "nmad"),))
    tracer = tracing.package_tracer()
    plain, traced, attempted, failures = run.measure(cli, workload, 1, 0.0, tmp_path, tracer)
    assert (len(plain), len(traced), attempted, failures) == (1, 1, 2, [])
    metrics = tracing.layer_metrics(tracer, 1, plain, traced)
    assert sorted(metrics) == sorted(name for name, _ in tracing.PER_LAYER)
    assert metrics["noise.kraus.calls"] == 200
    assert metrics["runner.assemble_per_scenario"] == 1
    assert metrics["trace.top_span_coverage"] > 0.95
    assert 0 < metrics["noise.kraus_nnz_frac"] < 1


def test_metric_names_and_units_are_well_formed_and_match_benchmark_json():
    names = [n for n, _ in run.END_TO_END + tracing.PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit in run.END_TO_END + tracing.PER_LAYER:
        assert NAME.match(name), name
        assert UNIT.match(unit), unit
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}


def test_inputs_follow_the_seed_and_keep_the_cost_fixed(tmp_path):
    workload = WORKLOADS["run-large"]
    first = make_pass(workload, 11, 4, tmp_path)
    again = make_pass(workload, 11, 4, tmp_path)
    other = make_pass(workload, 11, 5, tmp_path)
    assert [i.argv for i in first] == [i.argv for i in again]
    assert [i.edges for i in first] == [i.edges for i in again]
    assert [i.edges for i in first] != [i.edges for i in other]
    assert [i.dim for i in first] == [i.dim for i in other] == [254, 778, 1126]
    assert [i.dim for i in make_pass(WORKLOADS["run-noisy"], 1, 1, tmp_path)] == [254, 254, 76]


def test_tail_keeps_ten_samples_beyond():
    assert run.tail(range(100)) == (89, 90.0, 10)
    assert run.tail(range(15)) == (7, 8 / 15 * 100, 7)      # never below the median
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 200 / 3, 1)
