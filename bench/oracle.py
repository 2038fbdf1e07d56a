"""Independent correctness oracle for the benchmark's CLI operations.

Everything here is re-derived from the documented contract, without
importing the package:

* arcs are the 2m directed edges sorted by (tail, head);
* one step is U = S C: a Grover reflection per vertex, negated at the
  sender and receiver, then the arc reversal, so it is applied as a
  segment mean plus a permutation, in O(dim);
* the sender state is uniform over the sender's outgoing arcs, the
  receiver state ("outgoing" convention) over the receiver's outgoing arcs;
* l1 coherence of a pure state is (sum|psi|)^2 - sum|psi|^2;
* snapshot channels act on the clean state at step t in closed form.
  rtn/oun: F = p|<r|psi>|^2 + (1-p)|<r|Z psi>|^2 with p = (1+L)/2 and
  Z = diag(w^k), w = exp(2 pi i / dim); the coherence weights each cyclic
  lag d of |psi| by |p + (1-p) w^d|.
  nmad: rho = phi phi^dag + lam * sum_{j>=1}|psi_j|^2 |0><0|, phi = K_1 psi.

Checks return a list of problems; an empty list means the op passed.
"""

from __future__ import annotations

import functools
import json
import math
import re

import numpy as np

from workloads import NOISE_PARAMS, PEAK_THRESHOLD, REFERENCE_TABLES, STEPS, butterfly_edges

SERIES_TOL = 1e-10     # series and summaries, relative above magnitude 1
TABLE_TOL = 1e-3       # published reference averages
PRINTED_TOL = 1e-6     # values the ``tables`` command prints with 6 decimals
CSV_HEADER = "t,fidelity,coherence,fidelity_noisy,coherence_noisy"


class Arcs:
    """Arc basis and walk structure of a simple connected graph."""

    def __init__(self, n: int, edges) -> None:
        arcs = sorted([(u, v) for u, v in edges] + [(v, u) for u, v in edges])
        index = {a: i for i, a in enumerate(arcs)}
        self.n = n
        self.dim = len(arcs)
        self.tail = np.array([a[0] for a in arcs])
        self.rev = np.array([index[(h, t)] for t, h in arcs])
        self.deg = np.bincount(self.tail, minlength=n)
        self.starts = np.concatenate(([0], np.cumsum(self.deg)[:-1]))

    def uniform(self, vertices) -> np.ndarray:
        """Columns uniform over the outgoing arcs of each given vertex."""
        vertices = np.asarray(vertices)
        cols = (self.tail[:, None] == vertices[None, :]).astype(float)
        return cols / np.sqrt(self.deg[vertices])[None, :]

    def walk(self, senders, receivers, steps: int = STEPS):
        """Yield U^t |s> for t = 1..steps as (dim, pairs) arrays, one column per pair.

        The walk is real, so the states are real.  States are yielded one at
        a time so a sweep never holds its whole history.
        """
        senders = np.asarray(senders)
        receivers = np.asarray(receivers)
        marked = (self.tail[:, None] == senders[None, :]) | (self.tail[:, None] == receivers[None, :])
        sign = np.where(marked, -1.0, 1.0)
        psi = self.uniform(senders)
        for _ in range(steps):
            mean = np.add.reduceat(psi, self.starts, axis=0) / self.deg[:, None]
            psi = (sign * (2.0 * mean[self.tail] - psi))[self.rev]
            yield psi


def rtn_kernel(a: float, gamma: float, t: np.ndarray) -> np.ndarray:
    """Telegraph kernel L(t) = exp(-gamma t)[cos(nu gamma t) + sin(nu gamma t)/nu]."""
    x = gamma * t
    radicand = (2.0 * a / gamma) ** 2 - 1.0
    if radicand > 0:
        nu = math.sqrt(radicand)
        return np.exp(-x) * (np.cos(nu * x) + np.sin(nu * x) / nu)
    if radicand == 0:
        return np.exp(-x) * (1.0 + x)
    mu = math.sqrt(-radicand)
    return np.exp(-x) * (np.cosh(mu * x) + np.sinh(mu * x) / mu)


def oun_kernel(lam: float, gamma: float, t: np.ndarray) -> np.ndarray:
    """Ornstein-Uhlenbeck decay P(t) = exp(-(lam/2)(t + (exp(-gamma t) - 1)/gamma))."""
    return np.exp(-0.5 * lam * (t + (np.exp(-gamma * t) - 1.0) / gamma))


def nmad_kernel(g: float, gamma: float, t: np.ndarray) -> np.ndarray:
    """Damped fraction 1 - exp(-g t)[(g/l) sinh(l t/2) + cosh(l t/2)]^2, l^2 = g^2 - 2 gamma g."""
    radicand = g * g - 2.0 * gamma * g
    if radicand > 0:
        ell = math.sqrt(radicand)
        bracket = (g / ell) * np.sinh(0.5 * ell * t) + np.cosh(0.5 * ell * t)
    elif radicand == 0:
        bracket = 1.0 + 0.5 * g * t
    else:
        ell = math.sqrt(-radicand)
        bracket = (g / ell) * np.sin(0.5 * ell * t) + np.cos(0.5 * ell * t)
    return 1.0 - np.exp(-g * t) * bracket ** 2


def scenario_series(n: int, edges, sender: int, receiver: int, noise: str = "none",
                    params=(), steps: int = STEPS) -> dict[str, np.ndarray]:
    """Clean and channel-seen fidelity and coherence series of one scenario."""
    arcs = Arcs(n, edges)
    psi = np.array([state[:, 0] for state in arcs.walk([sender], [receiver], steps)])
    target = arcs.uniform([receiver])[:, 0]
    mags = np.abs(psi)
    fid = (psi @ target) ** 2
    coh = mags.sum(axis=1) ** 2 - (mags ** 2).sum(axis=1)
    t = np.arange(1, steps + 1, dtype=float)
    values = [v for _, v in params]
    if noise == "none":
        fid_n, coh_n = fid, coh
    elif noise in ("rtn", "oun"):
        kernel = rtn_kernel(*values, t) if noise == "rtn" else oun_kernel(*values, t)
        p = 0.5 * (1.0 + kernel)
        phase = np.exp(2j * np.pi * np.arange(arcs.dim) / arcs.dim)
        fid_n = p * fid + (1.0 - p) * np.abs(psi @ (target * phase)) ** 2
        # cyclic autocorrelation c[d] = sum_k |psi_k| |psi_{k+d}|, lags d >= 1
        corr = np.fft.ifft(np.abs(np.fft.fft(mags, axis=1)) ** 2, axis=1).real
        weight = np.abs(p[:, None] + (1.0 - p[:, None]) * phase[None, :])
        coh_n = (weight[:, 1:] * corr[:, 1:]).sum(axis=1)
    elif noise == "nmad":
        lam = nmad_kernel(*values, t)
        phi = psi.copy()
        phi[:, 1:] *= np.sqrt(1.0 - lam)[:, None]
        drained = lam * (psi[:, 1:] ** 2).sum(axis=1)
        fid_n = (phi @ target) ** 2 + drained * target[0] ** 2
        phi_mags = np.abs(phi)
        coh_n = phi_mags.sum(axis=1) ** 2 - (phi_mags ** 2).sum(axis=1)
    else:
        raise ValueError(f"unknown noise family {noise!r}")
    return {"fidelity": fid, "coherence": coh,
            "fidelity_noisy": fid_n, "coherence_noisy": coh_n}


def sweep_averages(n: int, edges, pairs, steps: int = STEPS) -> np.ndarray:
    """Noiseless fidelity series for many (sender, receiver) pairs at once: (steps, pairs)."""
    arcs = Arcs(n, edges)
    senders = [s for s, _ in pairs]
    receivers = [r for _, r in pairs]
    target = arcs.uniform(receivers)
    return np.array([(state * target).sum(axis=0) ** 2
                     for state in arcs.walk(senders, receivers, steps)])


def _close(got: float, want: float, tol: float = SERIES_TOL) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def check_summary(summary: dict, series: np.ndarray, sender: int, receiver: int,
                  noise: str) -> list[str]:
    """Compare a run summary with the oracle's fidelity series (t = 1..T)."""
    problems = []
    where = f"{sender}->{receiver}"
    for key, want in (("sender", sender), ("receiver", receiver),
                      ("noise_family", noise), ("peak_threshold", PEAK_THRESHOLD)):
        if summary.get(key) != want:
            problems.append(f"{where}: {key} is {summary.get(key)!r}, expected {want!r}")
    best = float(series.max())
    for key, want in (("average_fidelity", float(series.mean())), ("max_fidelity", best)):
        got = summary.get(key)
        if not isinstance(got, (int, float)) or not _close(got, want):
            problems.append(f"{where}: {key} {got!r} differs from oracle {want!r}")
    argmax = summary.get("argmax_t")
    if not (isinstance(argmax, int) and 1 <= argmax <= series.size
            and series[argmax - 1] >= best - SERIES_TOL):
        problems.append(f"{where}: argmax_t {argmax!r} is not a maximiser")
    want_peaks = {int(i) + 1 for i in np.flatnonzero(series >= PEAK_THRESHOLD)}
    got_peaks = summary.get("peak_times")
    if not isinstance(got_peaks, list):
        problems.append(f"{where}: peak_times missing")
    else:
        # a step within tolerance of the threshold may fall either side of it
        disputed = {t for t in set(got_peaks) ^ want_peaks
                    if not (isinstance(t, int) and 1 <= t <= series.size
                            and abs(series[t - 1] - PEAK_THRESHOLD) <= SERIES_TOL)}
        if disputed or len(got_peaks) != len(set(got_peaks)):
            problems.append(f"{where}: peak_times differ from oracle at t={sorted(map(str, disputed))}")
    return problems


def check_run(inp, csv_text: str, json_text: str) -> list[str]:
    """Check a ``run`` op: every CSV series value and the JSON summary."""
    want = scenario_series(inp.n, inp.edges, inp.sender, inp.receiver, inp.op.noise,
                           NOISE_PARAMS.get(inp.op.noise, ()))
    problems = []
    lines = csv_text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [f"csv header is {lines[:1]!r}"]
    rows = [ln.split(",") for ln in lines[1:]]
    if len(rows) != STEPS or any(len(r) != 5 for r in rows):
        return [f"csv has {len(rows)} rows, expected {STEPS} rows of 5 fields"]
    table = np.array(rows, dtype=float)
    if not np.array_equal(table[:, 0], np.arange(1, STEPS + 1)):
        problems.append("csv t column is not 1..T")
    for col, key in enumerate(("fidelity", "coherence", "fidelity_noisy", "coherence_noisy"), 1):
        err = np.abs(table[:, col] - want[key]) / np.maximum(1.0, np.abs(want[key]))
        if not err.max() <= SERIES_TOL:
            t = int(np.argmax(err)) + 1
            problems.append(f"csv {key} differs from oracle by {err.max():.3g} at t={t}")
    problems += check_summary(json.loads(json_text), want["fidelity_noisy"],
                              inp.sender, inp.receiver, inp.op.noise)
    return problems


def check_sweep(inp, json_text: str) -> list[str]:
    """Check a ``sweep`` op: one summary per ordered pair, ranked by average."""
    entries = json.loads(json_text)
    pairs = [(s, r) for s in range(inp.n) for r in range(inp.n) if s != r]
    got_pairs = [(e.get("sender"), e.get("receiver")) for e in entries]
    if sorted(got_pairs) != pairs:
        return [f"sweep covers {len(got_pairs)} pairs, expected all {len(pairs)} ordered pairs"]
    series = sweep_averages(inp.n, inp.edges, got_pairs)
    problems = []
    for k, entry in enumerate(entries):
        problems += check_summary(entry, series[:, k], *got_pairs[k], "none")
    averages = [e["average_fidelity"] for e in entries]
    if any(b > a + SERIES_TOL for a, b in zip(averages, averages[1:])):
        problems.append("sweep is not ranked by average fidelity")
    return problems


_TABLE_ROW = re.compile(r"^\s*(\d+) -> (\d+)\s+(\S+)\s+(\S+)\s+(\S+)\s*$")


@functools.cache
def reference_rows() -> tuple[tuple[int, int, float, float], ...]:
    """(sender, receiver, oracle average, published average) for every table row."""
    rows = []
    for path_n, wings, table in REFERENCE_TABLES:
        n, edges = butterfly_edges(path_n, wings)
        series = sweep_averages(n, edges, [(s, r) for s, r, _ in table])
        rows += [(s, r, float(series[:, k].mean()), expected)
                 for k, (s, r, expected) in enumerate(table)]
    return tuple(rows)


def check_tables(stdout: str, rows) -> list[str]:
    """Check the ``tables`` report against the oracle and the published values."""
    printed = [m.groups() for m in map(_TABLE_ROW.match, stdout.splitlines()) if m]
    if len(printed) != len(rows):
        return [f"tables printed {len(printed)} rows, expected {len(rows)}"]
    problems = []
    for (s, r, computed, reference, residual), (ws, wr, oracle, published) in zip(printed, rows):
        where = f"table row {ws}->{wr}"
        if (int(s), int(r)) != (ws, wr):
            problems.append(f"{where}: printed as {s}->{r}")
            continue
        if abs(float(computed) - oracle) > PRINTED_TOL:
            problems.append(f"{where}: computed {computed} differs from oracle {oracle:.8f}")
        if abs(float(reference) - published) > PRINTED_TOL:
            problems.append(f"{where}: reference {reference} is not the published {published}")
        if abs(float(residual)) > TABLE_TOL or abs(oracle - published) > TABLE_TOL:
            problems.append(f"{where}: residual {residual} exceeds {TABLE_TOL}")
    return problems


def check(inp, stdout: str, outputs: dict[str, str]) -> list[str]:
    """Check one op from its stdout and the text of its output files."""
    kind = inp.op.kind
    try:
        if kind == "tables":
            return check_tables(stdout, reference_rows())
        if kind == "sweep":
            return check_sweep(inp, outputs["json"])
        return check_run(inp, outputs["csv"], outputs["json"])
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        return [f"{kind} output could not be read: {type(exc).__name__}: {exc}"]
