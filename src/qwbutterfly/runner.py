"""Scenario configuration, batch execution, placement sweeps and export.

A scenario pins a connected graph, a sender/receiver pair, a step horizon
and a noise channel.  Running it yields per-step fidelity and coherence
series for the unitary walk and for the walk seen through the channel,
plus an aggregate summary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .graphs import Graph, build_butterfly, build_path, is_connected, is_int, is_real
from .metrics import coherence_l1
from .noise import NoiseSpec
from .walk import RECEIVER_CONVENTIONS, WalkOperator, _vertex_states

NOISE_MODES = ("snapshot", "stepwise")

CSV_HEADER = "t,fidelity,coherence,fidelity_noisy,coherence_noisy"

# Sweep averages that agree to this many decimals rank as ties, by (s, r).
TIE_DECIMALS = 12

# Bytes one batch of pairs may hold in its largest temporary: the (k, dim)
# states r^* psi as the snapshot channel's matmul reads them (dim entries per
# pair), or the (dim, k, dim) density batch in stepwise mode (dim^2 entries
# per pair), at 8 bytes an entry where the channel's diagonals are real (no
# noise, nmad) and 16 where they are complex (rtn, oun).  The walk's bincount
# bins take 8 bytes per float64 of the array stepped, so never more.  Longer
# pair lists run in chunks.
BATCH_STATE_BYTES = 32 * 2 ** 20


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


# The ScenarioConfig fields every pair of a sweep shares.
_SHARED_FIELDS = frozenset(f.name for f in dataclass_fields(ScenarioConfig)) - {
    "graph", "sender", "receiver"}


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


def _check_graph(g) -> None:
    if not isinstance(g, Graph):
        raise ConfigError(f"graph: must be a Graph, got {g!r}")


def _check_pair(g: Graph, sender, receiver) -> None:
    for name, value in (("sender", sender), ("receiver", receiver)):
        if not is_int(value):
            raise ConfigError(f"{name}: must be an integer, got {value!r}")
    if not (0 <= sender < g.n):
        raise ConfigError(f"sender: vertex {sender} out of range [0, {g.n})")
    if not (0 <= receiver < g.n):
        raise ConfigError(f"receiver: vertex {receiver} out of range [0, {g.n})")
    if sender == receiver:
        raise ConfigError("receiver: must differ from sender")


def _validate_config(cfg: ScenarioConfig) -> None:
    g = cfg.graph
    _check_graph(g)
    _check_pair(g, cfg.sender, cfg.receiver)
    if not is_int(cfg.steps):
        raise ConfigError(f"steps: must be an integer, got {cfg.steps!r}")
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
    return _summaries(np.asarray(series, dtype=float)[np.newaxis], [(sender, receiver)],
                      threshold, noise_family)[0]


def _summaries(fid: np.ndarray, pairs: Sequence[tuple[int, int]], threshold: float,
               noise_family: str) -> list[RunSummary]:
    """The RunSummary of each pair from its row of the (k, T) fidelity array."""
    argmax = fid.argmax(axis=1)  # earliest maximizer by argmax tie rule
    maxima = fid[np.arange(len(fid)), argmax]
    rows, times = np.nonzero(fid >= threshold)
    bounds = np.searchsorted(rows, np.arange(len(fid) + 1)).tolist()
    times = (times + 1).tolist()
    return [RunSummary(sender=s, receiver=r, average_fidelity=average, max_fidelity=peak,
                       argmax_t=t + 1, peak_times=tuple(times[lo:hi]),
                       peak_threshold=threshold, noise_family=noise_family)
            for (s, r), average, peak, t, lo, hi
            in zip(pairs, fid.mean(axis=1).tolist(), maxima.tolist(), argmax.tolist(),
                   bounds, bounds[1:])]


def _channel(noise: NoiseSpec, t: int, dim: int) -> tuple[np.ndarray, float]:
    """Step t's channel in closed form: its diagonals and its drain.  The
    KrausSet is dropped on return, so its dense stack is never built."""
    kraus = noise.kraus(t, dim)
    return kraus.diagonals, kraus.drain


def _snapshot(diagonals: np.ndarray, drain: float, psi: np.ndarray, bra: np.ndarray
              ) -> np.ndarray:
    """Fidelity of the channel output for pure states psi (..., dim), seen by
    receivers bra^*: the output is sum_i V_i V_i^dag + drain (|psi|^2 -
    |psi_0|^2) |0><0| with V_i = diag(diagonals[i]) psi, so the fidelity is
    sum_i |<r|V_i>|^2 + drain (|psi|^2 - |psi_0|^2) |r_0|^2, in O(ops dim).
    """
    fid = (np.abs((bra * psi) @ diagonals.T) ** 2).sum(-1)
    if drain:
        lost = (np.abs(psi) ** 2).sum(-1) - np.abs(psi[..., 0]) ** 2
        fid = fid + drain * lost * np.abs(bra[..., 0]) ** 2
    return fid


def _stepwise(diagonals: np.ndarray, drain: float, rho: np.ndarray) -> np.ndarray:
    """The channel on density matrices whose arc axes are the first and the
    last of rho: rho o sum_i d_i d_i^dag + drain (Tr rho - rho_00) |0><0|,
    in O(dim^2) per matrix."""
    weights = diagonals.T @ diagonals.conj()
    out = rho * np.expand_dims(weights, tuple(range(1, rho.ndim - 1)))
    if drain:
        out[0, ..., 0] += drain * (np.einsum("i...i->...", rho) - rho[0, ..., 0])
    return out


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Evolve the walk for t = 1..steps, recording clean and noisy metrics.

    For each t the clean fidelity compares U^t|psi(s)> against the
    receiver state, and the noisy fidelity compares the channel output
    rho_t' = sum_i K_i(t) |psi_t><psi_t| K_i(t)^dag against the receiver
    projector.  With the "none" family the two series coincide.  The
    channel acts in closed form (_snapshot, _stepwise); no Kraus matrix
    is built.  The run is the one-pair case of the batch loop of sweeps.
    """
    _validate_config(cfg)
    walk = WalkOperator.assemble(cfg.graph, cfg.sender, cfg.receiver)
    fid_noisy, fid, coh, coh_noisy = _evolve(walk, cfg)
    summary = summarize(fid_noisy, cfg.sender, cfg.receiver, cfg.peak_threshold,
                        cfg.noise.family)
    return ScenarioResult(steps=cfg.steps, fidelity=fid, coherence=coh,
                          fidelity_noisy=fid_noisy, coherence_noisy=coh_noisy,
                          summary=summary)


def _run_pairs(graph: Graph, pairs: Sequence[tuple[int, int]], fields: dict
               ) -> list[RunSummary]:
    """Summaries of the scenarios of several (sender, receiver) pairs on one graph.

    Gives what run_scenario(...).summary gives for each pair, to 1e-12, from
    one batched walk (_evolve): one assembly and one full validation per
    graph (plus each pair's own checks), and no coherence series.  `fields`
    are the other ScenarioConfig fields, shared by every pair.  A batch's
    largest temporary holds at most BATCH_STATE_BYTES; longer pair lists run
    in chunks.
    """
    cfg = ScenarioConfig(graph, *pairs[0], **fields)
    _validate_config(cfg)
    for s, r in pairs[1:]:
        _check_pair(graph, s, r)
    walk = WalkOperator.assemble(graph, *pairs[0])
    dim = walk.basis.dim
    # no noise keeps the noise layer bypassed; its diagonals are real
    itemsize = 8 if cfg.noise.family == "none" else cfg.noise.kraus(0, dim).diagonals.itemsize
    entries = dim * dim if cfg.noise_mode == "stepwise" else dim
    chunk = max(1, BATCH_STATE_BYTES // (itemsize * entries))
    fid = np.concatenate([_evolve(walk, cfg, pairs[i:i + chunk])[0]
                          for i in range(0, len(pairs), chunk)])
    return _summaries(fid, pairs, cfg.peak_threshold, cfg.noise.family)


def _evolve(walk: WalkOperator, cfg: ScenarioConfig,
            pairs: Optional[Sequence[tuple[int, int]]] = None) -> tuple[np.ndarray, ...]:
    """The step loop of runs, sweeps and tables.

    Returns (noisy fidelity, clean fidelity, clean coherence, noisy
    coherence), each indexed by t - 1.  With `pairs`, their k walks step as
    one (k, dim) float64 batch (a (dim, k, dim) density batch in stepwise
    mode), each step's closed-form channel is shared by the batch, and only
    the (k, steps) noisy fidelity is returned; the other three are None.
    Without, the walk's own pair steps as one (dim,) state (a (dim, dim)
    density matrix) and every series is returned, as a run records them.
    """
    series = pairs is None
    batch = walk if series else walk.for_pairs(*(np.array(marks) for marks in zip(*pairs)))
    psi = _vertex_states(walk.basis, batch.sender)
    target = _vertex_states(walk.basis, batch.receiver, cfg.receiver_convention)
    stepwise = cfg.noise_mode == "stepwise"
    noiseless = cfg.noise.family == "none" and not stepwise
    if stepwise:
        # rho[i, k, j] = psi_k[i] psi_k[j]: with the pair axis in the middle,
        # .T swaps the two arc axes and keeps the pairs
        rho = np.einsum("...i,...j->i...j", psi, psi)
    T = cfg.steps
    overlap = np.empty((*psi.shape[:-1], T))   # <target|psi_t>
    fid_noisy = np.empty_like(overlap)
    coh, coh_noisy = np.empty(T), np.empty(T)
    for t in range(1, T + 1):
        if series or not stepwise:  # a stepwise sweep needs only the densities
            psi = batch.step(psi)
            np.einsum("...d,...d->...", target, psi, out=overlap[..., t - 1])
        if series:
            coh[t - 1] = coherence_l1(psi)
        if noiseless:
            continue
        diagonals, drain = _channel(cfg.noise, t, walk.basis.dim)
        if stepwise:
            # U rho U^dag, since U is real
            rho = _stepwise(diagonals, drain, batch.step(batch.step(rho).T).T)
            fid_noisy[..., t - 1] = np.einsum("...i,i...j,...j->...", target, rho, target).real
            if series:
                coh_noisy[t - 1] = coherence_l1(rho)
            continue
        fid_noisy[..., t - 1] = _snapshot(diagonals, drain, psi, target)
        if series:
            # the drain lands on the diagonal, so one operator leaves the pure
            # state V_0; more give psi psi^dag o W with W = sum_i d_i d_i^dag,
            # circulant because every rtn/oun diagonal is a scaled character
            # omega^{uk}, so its first column carries the lag weights
            if len(diagonals) == 1:
                coh_noisy[t - 1] = coherence_l1(diagonals[0] * psi)
            else:
                lags = np.abs(diagonals.T @ diagonals[:, 0].conj())
                coh_noisy[t - 1] = coherence_l1(psi, lags)
    if noiseless:
        # identity channel: the noisy series are the clean ones, bit for bit
        fid_noisy, coh_noisy = overlap ** 2, coh.copy()
    if not series:
        return fid_noisy, None, None, None
    return fid_noisy, overlap ** 2, coh, coh_noisy


def sweep_placements(graph: Graph, /, **fields) -> list[RunSummary]:
    """Run every ordered (sender, receiver) pair and rank the summaries.

    `fields` are the other ScenarioConfig fields, shared by every run; the
    pairs run as one batch (see _run_pairs).  Both orderings of each pair are
    run: the marked-coin signs are symmetric but the sender and receiver
    states are not.  Results are sorted by average fidelity rounded to
    TIE_DECIMALS decimals, descending, then by (s, r); the reported
    averages are not rounded.
    """
    for name in fields:
        if name not in _SHARED_FIELDS:
            raise ConfigError(f"{name}: not a field shared by every pair of the sweep")
    _check_graph(graph)
    if graph.n < 2:
        raise ConfigError("graph: placement sweep needs at least 2 vertices")
    pairs = [(s, r) for s in range(graph.n) for r in range(graph.n) if s != r]
    summaries = _run_pairs(graph, pairs, fields)
    summaries.sort(key=lambda rs: (-round(rs.average_fidelity, TIE_DECIMALS),
                                   rs.sender, rs.receiver))
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
        pairs = [(s, r) for s, r, _ in table.rows]
        summaries = _run_pairs(graph, pairs, dict(steps=steps,
                                                  receiver_convention=receiver_convention))
        rows = [(s, r, rs.average_fidelity, expected, rs.average_fidelity - expected)
                for (s, r, expected), rs in zip(table.rows, summaries)]
        out.append((table, rows))
    return out
