"""Benchmark workloads and the seeded input generator.

A workload is a fixed list of CLI operations; one *pass* runs that list
once.  Every pass gets fresh inputs drawn from the workload seed and the
pass index: a random relabelling of the graph's vertices, written as an
edge-list file the program reads through ``--graph-file``, and for ``run``
operations a random sender/receiver pair.  Relabelling never changes the
graph's size, so the work in every pass is the same, while no pass can
reuse an earlier pass's result.

The butterfly construction is re-derived here from its documented
contract (path body, wings shifted by ``j*n``, one joining edge per body
vertex) so the inputs do not depend on package code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

STEPS = 200
PEAK_THRESHOLD = 0.8

# Channel parameters passed explicitly on the command line.  They equal
# the CLI defaults, which are the settings behind the reference curves.
NOISE_PARAMS = {
    "rtn": (("rtn-a", 0.1), ("rtn-gamma", 0.01)),
    "oun": (("oun-lambda", 1.0), ("oun-gamma", 0.05)),
    "nmad": (("nmad-g", 0.001), ("nmad-gamma", 5.0)),
}

# Published average fidelities reproduced by the ``tables`` command:
# (seed path length, wings, ((sender, receiver, expected average), ...)).
REFERENCE_TABLES = (
    (2, 1, ((0, 1, 0.125), (1, 2, 0.25), (0, 2, 0.125))),
    (2, 3, ((0, 1, 0.1698), (0, 2, 0.0406), (5, 6, 0.0928), (4, 6, 0.0916))),
    (3, 3, ((0, 2, 0.0992), (0, 3, 0.05775), (0, 4, 0.05465),
            (4, 6, 0.07215), (5, 6, 0.1087))),
)


@dataclass(frozen=True)
class Op:
    """One CLI operation of a workload, before inputs are drawn."""

    kind: str                # "tables", "sweep" or "run"
    path_n: int = 0          # butterfly body: the path on path_n vertices
    wings: int = 0
    noise: str = "none"

    @property
    def label(self) -> str:
        if self.kind == "tables":
            return "tables"
        suffix = "" if self.noise == "none" else f"-{self.noise}"
        return f"{self.kind}-p{self.path_n}w{self.wings}{suffix}"

    @property
    def scenarios(self) -> int:
        """Scenarios (sender/receiver runs of STEPS steps) this op performs."""
        if self.kind == "tables":
            return sum(len(rows) for _, _, rows in REFERENCE_TABLES)
        if self.kind == "sweep":
            n = (self.wings + 1) * self.path_n
            return n * (n - 1)
        return 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple[Op, ...]

    @property
    def scenario_steps_per_pass(self) -> int:
        return STEPS * sum(op.scenarios for op in self.ops)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "sweep-small",
            "200 tiny noiseless scenarios per pass: per-scenario assembly, validation "
            "and per-step metric-call overhead dominate; the noise layer is bypassed",
            (Op("tables"), Op("sweep", 2, 3), Op("sweep", 3, 3))),
        Workload(
            "run-large",
            "noiseless runs at arc dims 254, 778 and 1126: dense O(dim^2) matvec, "
            "coherence and assembly dominate; the noise layer is bypassed",
            (Op("run", 8, 8), Op("run", 10, 20), Op("run", 12, 24))),
        Workload(
            "run-noisy",
            "snapshot rtn and oun runs at dim 254 and nmad at dim 76: Kraus "
            "construction and the channel action dominate; the walk share is small",
            (Op("run", 8, 8, "rtn"), Op("run", 8, 8, "oun"), Op("run", 4, 5, "nmad"))),
    )
}


def butterfly_edges(path_n: int, wings: int) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edges of the butterfly grown from the path on path_n vertices."""
    body = [(i, i + 1) for i in range(path_n - 1)]
    edges = list(body)
    for j in range(1, wings + 1):
        offset = j * path_n
        edges.extend((u + offset, v + offset) for u, v in body)
        edges.extend((i, offset + i) for i in range(path_n))
    return (wings + 1) * path_n, edges


@dataclass
class OpInput:
    """An operation with its drawn inputs, its argv and its output paths."""

    op: Op
    argv: list[str]
    n: int = 0
    edges: Optional[list[tuple[int, int]]] = None
    sender: Optional[int] = None
    receiver: Optional[int] = None
    out_csv: Optional[Path] = None
    out_json: Optional[Path] = None

    @property
    def dim(self) -> int:
        return 2 * len(self.edges) if self.edges is not None else 0


def relabel(n: int, edges: list[tuple[int, int]], rng: random.Random
            ) -> list[tuple[int, int]]:
    """Apply a random vertex permutation and shuffle the edge order."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) for u, v in edges]
    rng.shuffle(out)
    return out


def write_edge_list(path: Path, n: int, edges: list[tuple[int, int]]) -> None:
    """Write the documented edge-list format: header "n <count>", then "u v" lines."""
    lines = [f"n {n}"] + [f"{u} {v}" for u, v in edges]
    path.write_text("\n".join(lines) + "\n")


def make_pass(workload: Workload, seed: int, index: int, workdir: Path) -> list[OpInput]:
    """Draw the inputs of pass `index`, write its graph files into workdir and
    remove any output an earlier pass left there."""
    rng = random.Random(f"qwbutterfly-bench/{seed}/{index}")
    inputs = []
    for k, op in enumerate(workload.ops):
        if op.kind == "tables":
            inputs.append(OpInput(op, ["tables", "--steps", str(STEPS),
                                       "--receiver-convention", "outgoing"]))
            continue
        n, edges = butterfly_edges(op.path_n, op.wings)
        edges = relabel(n, edges, rng)
        graph_file = workdir / f"op{k}.graph"
        write_edge_list(graph_file, n, edges)
        out_json = workdir / f"op{k}.json"
        out_json.unlink(missing_ok=True)
        argv = [op.kind, "--graph-file", str(graph_file), "--steps", str(STEPS),
                "--noise", op.noise, "--receiver-convention", "outgoing",
                "--peak-threshold", repr(PEAK_THRESHOLD), "--out-json", str(out_json)]
        inp = OpInput(op, argv, n=n, edges=edges, out_json=out_json)
        if op.kind == "run":
            inp.sender, inp.receiver = rng.sample(range(n), 2)
            inp.out_csv = workdir / f"op{k}.csv"
            inp.out_csv.unlink(missing_ok=True)
            argv += ["--sender", str(inp.sender), "--receiver", str(inp.receiver),
                     "--noise-mode", "snapshot", "--out-csv", str(inp.out_csv)]
        for flag, value in NOISE_PARAMS.get(op.noise, ()):
            argv += [f"--{flag}", repr(value)]
        inputs.append(inp)
    return inputs
