"""The closed-form channels of run and sweep against the dense Kraus oracle.

The runtime applies each channel as diagonal operators plus a drain into
|0>; the oracle materialises the Kraus stack and applies it with
apply_channel / apply_channel_mixed after the dense walk matrix.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qwbutterfly import (
    KrausSet,
    NoiseSpec,
    ScenarioConfig,
    WalkOperator,
    apply_channel,
    apply_channel_mixed,
    build_butterfly,
    build_path,
    coherence_l1,
    evaluate_reference_tables,
    fidelity_with_pure,
    receiver_state,
    run_scenario,
    sender_state,
    sweep_placements,
)
from qwbutterfly.cli import main
from test_walk_properties import PROPERTY, scenarios

P2 = build_path(2)
ACCEPTANCE = {
    "P2": (P2, 0, 1),
    "B1": (build_butterfly(P2, 1), 1, 2),
    "B2": (build_butterfly(P2, 2), 2, 5),
    "B3_P2": (build_butterfly(P2, 3), 5, 6),
    "B3_P3": (build_butterfly(build_path(3), 3), 5, 6),
}
NOISES = [NoiseSpec(), NoiseSpec.rtn(0.1, 0.01), NoiseSpec.oun(1.0, 0.05),
          NoiseSpec.nmad(0.001, 5.0), NoiseSpec.nmad(0.3, 0.05)]
MODES = ("snapshot", "stepwise")


def dense_series(graph, s, r, spec, mode, steps):
    """Noisy fidelity and coherence series from the dense evolution matrix
    and each step's materialised Kraus stack."""
    walk = WalkOperator.assemble(graph, s, r)
    u, dim = np.array(walk.evolution), walk.basis.dim
    psi = sender_state(graph, walk.basis, s)
    target = receiver_state(graph, walk.basis, r)
    rho = np.outer(psi, psi.conj())
    fid, coh = np.empty(steps), np.empty(steps)
    for t in range(1, steps + 1):
        if mode == "snapshot":
            psi = u @ psi
            out = apply_channel(spec.kraus(t, dim), psi)
        else:
            rho = out = apply_channel_mixed(spec.kraus(t, dim), u @ rho @ u.conj().T)
        fid[t - 1] = fidelity_with_pure(out, target)
        coh[t - 1] = coherence_l1(out)
    return fid, coh


def assert_matches_oracle(graph, s, r, spec, mode, steps):
    res = run_scenario(ScenarioConfig(graph=graph, sender=s, receiver=r, steps=steps,
                                      noise=spec, noise_mode=mode))
    fid, coh = dense_series(graph, s, r, spec, mode, steps)
    assert np.max(np.abs(res.fidelity_noisy - fid)) <= 1e-12
    assert np.max(np.abs(res.coherence_noisy - coh)) <= 1e-12


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("spec", NOISES, ids=lambda s: s.family)
@pytest.mark.parametrize("name", sorted(ACCEPTANCE))
def test_closed_form_series_match_dense_kraus_oracle(name, spec, mode):
    graph, s, r = ACCEPTANCE[name]
    assert_matches_oracle(graph, s, r, spec, mode, steps=60)
    # receiver 0 sees the drain in its own arcs
    assert_matches_oracle(graph, r, 0, spec, mode, steps=60)


@pytest.mark.parametrize("spec", NOISES[1:3], ids=lambda s: s.family)
def test_dephasing_snapshot_at_dim_254_matches_dense_kraus_oracle(spec):
    # the run-noisy benchmark size, where the coherence takes its FFT form
    graph = build_butterfly(build_path(8), 8)
    assert WalkOperator.assemble(graph, 3, 40).basis.dim == 254
    assert_matches_oracle(graph, 3, 40, spec, "snapshot", steps=200)


@PROPERTY
@given(scenarios(), st.sampled_from(NOISES), st.sampled_from(MODES))
def test_closed_form_matches_oracle_on_random_graphs(scenario, spec, mode):
    assert_matches_oracle(*scenario, spec, mode, steps=25)


def test_no_kraus_stack_is_built_by_run_sweep_or_tables(monkeypatch, capsys, tmp_path):
    def refuse(self):
        raise AssertionError("dense Kraus stack built on the runtime path")

    monkeypatch.setattr(KrausSet, "stack", property(refuse))
    with pytest.raises(AssertionError):
        _ = NoiseSpec.nmad(0.3, 0.05).kraus(1, 4).operators
    graph, s, r = ACCEPTANCE["B3_P2"]
    for spec in NOISES:
        for mode in MODES:
            fields = dict(steps=20, noise=spec, noise_mode=mode)
            run_scenario(ScenarioConfig(graph=graph, sender=s, receiver=r, **fields))
            assert len(sweep_placements(graph, **fields)) == 56
            flags = ["--seed-path", "2", "--wings", "1", "--steps", "20",
                     "--noise", spec.family, "--noise-mode", mode]
            assert main(["run", *flags, "--sender", "0", "--receiver", "1",
                         "--out-csv", str(tmp_path / "series.csv")]) == 0
            assert main(["sweep", *flags]) == 0
    evaluate_reference_tables(steps=20, receiver_convention="outgoing")
    assert main(["tables"]) == 0
    capsys.readouterr()
