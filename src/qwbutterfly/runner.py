"""Scenario configuration, batch execution, placement sweeps and export.

A scenario pins a connected graph, a sender/receiver pair, a step horizon
and a noise channel.  Running it yields per-step fidelity and coherence
series for the unitary walk and for the walk seen through the channel,
plus an aggregate summary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .graphs import Graph, build_butterfly, build_path, is_connected, is_int, is_real
from .metrics import average_fidelity, coherence_l1, fidelity_pure, fidelity_with_pure
from .noise import NoiseSpec, apply_channel, apply_channel_mixed
from .walk import RECEIVER_CONVENTIONS, WalkOperator, receiver_state, sender_state

NOISE_MODES = ("snapshot", "stepwise")

CSV_HEADER = "t,fidelity,coherence,fidelity_noisy,coherence_noisy"


class ConfigError(ValueError):
    """A scenario field failed validation; the message names the field."""


@dataclass
class ScenarioConfig:
    """One state-transfer run.

    receiver_convention "outgoing" is the calibrated default that
    reproduces the bundled reference tables; "incoming" shifts the
    fidelity series by one step.  noise_mode "snapshot" applies the
    channel evaluated at time t to the unitarily evolved state at t;
    "stepwise" compounds the channel after every step and is provided
    for comparison only.  The CLI takes its defaults and help text from
    these field defaults.  run_scenario checks each field's type and range
    (the graph only for connectivity) and names the field in any ConfigError.
    """

    graph: Graph
    sender: int
    receiver: int
    steps: int = 200
    noise: NoiseSpec = NoiseSpec()
    receiver_convention: str = "outgoing"
    noise_mode: str = "snapshot"
    peak_threshold: float = 0.8


@dataclass
class RunSummary:
    """Aggregates of the fidelity series seen through the channel."""

    sender: int
    receiver: int
    average_fidelity: float
    max_fidelity: float
    argmax_t: int                    # earliest maximizer, in 1..steps
    peak_times: tuple[int, ...]      # every t with fidelity >= threshold
    peak_threshold: float
    noise_family: str

    def to_dict(self) -> dict:
        return {
            "sender": self.sender,
            "receiver": self.receiver,
            "average_fidelity": self.average_fidelity,
            "max_fidelity": self.max_fidelity,
            "argmax_t": self.argmax_t,
            "peak_times": list(self.peak_times),
            "peak_threshold": self.peak_threshold,
            "noise_family": self.noise_family,
        }


@dataclass
class ScenarioResult:
    """Per-step series (index i holds step t = i + 1) plus the summary."""

    steps: int
    fidelity: np.ndarray
    coherence: np.ndarray
    fidelity_noisy: np.ndarray
    coherence_noisy: np.ndarray
    summary: RunSummary


def _validate_config(cfg: ScenarioConfig) -> None:
    g = cfg.graph
    for name in ("sender", "receiver", "steps"):
        if not is_int(getattr(cfg, name)):
            raise ConfigError(f"{name}: must be an integer, got {getattr(cfg, name)!r}")
    if not (0 <= cfg.sender < g.n):
        raise ConfigError(f"sender: vertex {cfg.sender} out of range [0, {g.n})")
    if not (0 <= cfg.receiver < g.n):
        raise ConfigError(f"receiver: vertex {cfg.receiver} out of range [0, {g.n})")
    if cfg.sender == cfg.receiver:
        raise ConfigError("receiver: must differ from sender")
    if cfg.steps < 1:
        raise ConfigError(f"steps: horizon must be >= 1, got {cfg.steps}")
    if cfg.receiver_convention not in RECEIVER_CONVENTIONS:
        raise ConfigError(f"receiver_convention: unknown value {cfg.receiver_convention!r}")
    if cfg.noise_mode not in NOISE_MODES:
        raise ConfigError(f"noise_mode: unknown value {cfg.noise_mode!r}")
    if not isinstance(cfg.noise, NoiseSpec):
        raise ConfigError(f"noise: must be a NoiseSpec, got {cfg.noise!r}")
    if not (is_real(cfg.peak_threshold) and 0 <= cfg.peak_threshold <= 1):
        raise ConfigError(
            f"peak_threshold: must be a number in [0, 1], got {cfg.peak_threshold!r}")
    if g.n < 2 or not is_connected(g):
        raise ConfigError("graph: walk scenarios need a connected graph on >= 2 vertices")


def summarize(series: np.ndarray, sender: int, receiver: int, threshold: float,
              noise_family: str) -> RunSummary:
    """Build a RunSummary from a fidelity series indexed by t = 1..T."""
    series = np.asarray(series, dtype=float)
    argmax = int(np.argmax(series))  # earliest maximizer by argmax tie rule
    peaks = tuple(int(i) + 1 for i in np.flatnonzero(series >= threshold))
    return RunSummary(
        sender=sender,
        receiver=receiver,
        average_fidelity=average_fidelity(series),
        max_fidelity=float(series[argmax]),
        argmax_t=argmax + 1,
        peak_times=peaks,
        peak_threshold=threshold,
        noise_family=noise_family,
    )


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Evolve the walk for t = 1..steps, recording clean and noisy metrics.

    For each t the clean fidelity compares U^t|psi(s)> against the
    receiver state, and the noisy fidelity compares the channel output
    rho_t' = sum_i K_i(t) |psi_t><psi_t| K_i(t)^dag against the receiver
    projector.  With the "none" family the two series coincide.
    """
    _validate_config(cfg)
    walk = WalkOperator.assemble(cfg.graph, cfg.sender, cfg.receiver)
    basis = walk.basis
    psi = sender_state(cfg.graph, basis, cfg.sender)
    target = receiver_state(cfg.graph, basis, cfg.receiver, cfg.receiver_convention)

    T = cfg.steps
    fid = np.empty(T)
    coh = np.empty(T)
    fid_noisy = np.empty(T)
    coh_noisy = np.empty(T)

    noiseless = cfg.noise.family == "none" and cfg.noise_mode == "snapshot"
    rho = np.outer(psi, psi.conj()) if cfg.noise_mode == "stepwise" else None
    for t in range(1, T + 1):
        psi = walk.evolution @ psi
        fid[t - 1] = fidelity_pure(psi, target)
        coh[t - 1] = coherence_l1(psi)
        if noiseless:
            # identity channel: reuse the clean values bit for bit
            fid_noisy[t - 1] = fid[t - 1]
            coh_noisy[t - 1] = coh[t - 1]
            continue
        kraus = cfg.noise.kraus(t, basis.dim)
        if cfg.noise_mode == "snapshot":
            rho_t = apply_channel(kraus, psi)
        else:
            rho = apply_channel_mixed(kraus, walk.evolution @ rho @ walk.evolution.conj().T)
            rho_t = rho
        fid_noisy[t - 1] = fidelity_with_pure(rho_t, target)
        coh_noisy[t - 1] = coherence_l1(rho_t)

    summary = summarize(fid_noisy, cfg.sender, cfg.receiver, cfg.peak_threshold,
                        cfg.noise.family)
    return ScenarioResult(steps=T, fidelity=fid, coherence=coh,
                          fidelity_noisy=fid_noisy, coherence_noisy=coh_noisy,
                          summary=summary)


def sweep_placements(graph: Graph, **fields) -> list[RunSummary]:
    """Run every ordered (sender, receiver) pair and rank the summaries.

    `fields` are the other ScenarioConfig fields, shared by every run.
    Both orderings of each pair are run: the marked-coin signs are
    symmetric but the sender and receiver states are not.  Results are
    sorted by average fidelity descending, ties broken by (s, r).
    """
    if graph.n < 2:
        raise ConfigError("graph: placement sweep needs at least 2 vertices")
    summaries = []
    for s in range(graph.n):
        for r in range(graph.n):
            if s == r:
                continue
            cfg = ScenarioConfig(graph=graph, sender=s, receiver=r, **fields)
            summaries.append(run_scenario(cfg).summary)
    summaries.sort(key=lambda rs: (-rs.average_fidelity, rs.sender, rs.receiver))
    return summaries


def export(result: ScenarioResult, csv_path: Optional[str | Path] = None,
           json_path: Optional[str | Path] = None) -> None:
    """Write the per-step series as CSV and/or the summary as JSON.

    CSV values carry 16 significant digits so the series can be reparsed
    without losing the summary statistics.
    """
    if csv_path is not None:
        lines = [CSV_HEADER]
        for i in range(result.steps):
            lines.append(f"{i + 1},{result.fidelity[i]:.15e},{result.coherence[i]:.15e},"
                         f"{result.fidelity_noisy[i]:.15e},{result.coherence_noisy[i]:.15e}")
        _write_text(csv_path, "\n".join(lines) + "\n")
    if json_path is not None:
        _write_text(json_path, json.dumps(result.summary.to_dict(), indent=2) + "\n")


def export_sweep(summaries: list[RunSummary], json_path: str | Path) -> None:
    """Write a ranked placement sweep as a JSON array."""
    _write_text(json_path, json.dumps([s.to_dict() for s in summaries], indent=2) + "\n")


def _write_text(path: str | Path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise OSError(f"failed to write {path}: {exc}") from exc


@dataclass(frozen=True)
class ReferenceTable:
    """Published average fidelities for the standard butterfly placements."""

    label: str
    seed_path: int
    wings: int
    rows: tuple[tuple[int, int, float], ...]  # (sender, receiver, expected average)


REFERENCE_TABLES: tuple[ReferenceTable, ...] = (
    ReferenceTable("1-wing butterfly from the 2-path", 2, 1,
                   ((0, 1, 0.125), (1, 2, 0.25), (0, 2, 0.125))),
    ReferenceTable("3-wing butterfly from the 2-path", 2, 3,
                   ((0, 1, 0.1698), (0, 2, 0.0406), (5, 6, 0.0928), (4, 6, 0.0916))),
    ReferenceTable("3-wing butterfly from the 3-path", 3, 3,
                   ((0, 2, 0.0992), (0, 3, 0.05775), (0, 4, 0.05465),
                    (4, 6, 0.07215), (5, 6, 0.1087))),
)


def evaluate_reference_tables(*, steps: int, receiver_convention: str
                              ) -> list[tuple[ReferenceTable, list[tuple[int, int, float, float, float]]]]:
    """Recompute every reference-table row and report the residuals.

    Returns, per table, rows of (sender, receiver, computed, expected,
    residual) so callers can see how close the chosen conventions land.
    """
    out = []
    for table in REFERENCE_TABLES:
        graph = build_butterfly(build_path(table.seed_path), table.wings)
        rows = []
        for s, r, expected in table.rows:
            cfg = ScenarioConfig(graph=graph, sender=s, receiver=r, steps=steps,
                                 receiver_convention=receiver_convention)
            computed = run_scenario(cfg).summary.average_fidelity
            rows.append((s, r, computed, expected, computed - expected))
        out.append((table, rows))
    return out
