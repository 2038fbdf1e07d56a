#!/usr/bin/env python3
"""qwbutterfly benchmark: CLI workloads end to end, and layer by layer when traced.

One process runs one workload.  It drives the public CLI in process
(``qwbutterfly.cli.main(argv)``, stdout captured, output files in a
temporary directory inside the checkout) with one client in a closed
loop: an operation starts only when the previous one has ended.  Inputs
are drawn from ``--seed`` (see workloads.py) and every output is checked
by an independent oracle (oracle.py) outside the timed passes.

    python3 bench/run.py --workload sweep-small --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1
    python3 -m pytest bench            # harness self-tests

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, the tracing
overhead and the share of pass time covered by top-level spans, and
writes the spans to .bench_out/.  The last line of stdout is one JSON
object: correct, attempted, failed and metrics.
"""

import os

# BLAS runs single-threaded: pinned here, before numpy loads, for this
# process and every child it starts.
THREAD_PINS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS, make_pass  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 3          # the run's own set-up plus fresh child processes
TAIL_BEYOND = 10           # passes that must lie beyond the tail percentile
CHILD_TIMEOUT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s.p50", "s"),
    ("wall_s.tail", "s"),
    ("walk_steps_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)


def import_cli():
    """Import qwbutterfly.cli from this checkout's src/ tree, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        from qwbutterfly import cli
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import qwbutterfly from {SRC}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: qwbutterfly was imported from {cli.__file__}, not {SRC}")
    return cli


def run_op(cli, argv):
    """Run one CLI op in process: (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:      # argparse rejects bad arguments this way
        code = exc.code
    except Exception:
        code = None
        err.write(traceback.format_exc())
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def run_pass(cli, inputs, tracer=None):
    """Run the op list back to back; returns (pass seconds, per-op results)."""
    results = []
    start = time.perf_counter()
    for inp in inputs:
        if tracer is not None:
            tracer.op_id += 1
        results.append(run_op(cli, inp.argv))
    return time.perf_counter() - start, results


def check_pass(inputs, results) -> list[str]:
    """One line per failed op: non-zero exit, exception or oracle mismatch."""
    import oracle  # loads numpy, so it is imported after set-up has been timed

    failures = []
    for inp, (_, code, stdout, stderr) in zip(inputs, results):
        if code != 0:
            failures.append(f"{inp.op.label}: exit {code}: {stderr.strip()[-400:]}")
            continue
        outputs = {}
        for key, path in (("csv", inp.out_csv), ("json", inp.out_json)):
            if path is not None and path.exists():
                outputs[key] = path.read_text()
        problems = oracle.check(inp, stdout, outputs)
        if problems:
            failures.append(f"{inp.op.label}: " + "; ".join(problems[:3]))
    return failures


def setup(workload, seed, workdir):
    """Package import, input generation and the first, untimed pass."""
    start = time.perf_counter()
    cli = import_cli()
    inputs = make_pass(workload, seed, 0, workdir)
    _, results = run_pass(cli, inputs)
    return cli, time.perf_counter() - start, inputs, results


def setup_in_child(workload, seed) -> tuple[float, list]:
    """Set-up time and exit codes measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report["setup_s"], report["codes"]


def tail(samples) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the highest percentile with at
    least TAIL_BEYOND samples beyond it.

    A run too short for such a percentile to lie above the median reports
    the upper median instead, with fewer samples beyond it.
    """
    xs = sorted(samples)
    n = len(xs)
    i = max(n - 1 - TAIL_BEYOND, n // 2)
    return xs[i], 100.0 * (i + 1) / n, n - 1 - i


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def provenance(workload, seed, inputs) -> dict:
    import numpy as np
    import qwbutterfly

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": workload.name, "seed": seed, "git_sha": git_sha(),
        "qwbutterfly": getattr(qwbutterfly, "__version__", "unknown"),
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS,
        "dims": {inp.op.label: inp.dim for inp in inputs if inp.dim},
    }


def measure(cli, workload, seed, seconds, workdir, tracer=None):
    """Run passes until `seconds` of pass time is spent.

    Without a tracer every pass is timed untraced.  With one, passes
    alternate untraced and traced.  Returns (untraced times, traced times,
    ops attempted, failure lines).
    """
    plain, traced = [], []
    attempted, failures = 0, []
    index = 1
    while sum(plain) + sum(traced) < seconds or (tracer is not None and not traced):
        inputs = make_pass(workload, seed, index, workdir)
        with_trace = tracer is not None and index % 2 == 0
        with tracer.active() if with_trace else contextlib.nullcontext():
            seconds_taken, results = run_pass(cli, inputs, tracer if with_trace else None)
        (traced if with_trace else plain).append(seconds_taken)
        attempted += len(inputs)
        failures += check_pass(inputs, results)
        index += 1
    return plain, traced, attempted, failures


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=OUT_DIR) as tmp:
        workdir = Path(tmp)
        cli, setup_s, inputs0, results0 = setup(workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "codes": [r[1] for r in results0]}))
            return 0
        import tracing  # after set-up, so its numpy import is not timed there

        attempted = len(inputs0)
        failures = check_pass(inputs0, results0)
        setup_samples = [setup_s]
        tracer = tracing.package_tracer() if args.trace else None
        if tracer is None:
            for _ in range(SETUP_SAMPLES - 1):
                seconds, codes = setup_in_child(workload, args.seed)
                setup_samples.append(seconds)
                attempted += len(codes)
                failures += [f"set-up child op exited {c}" for c in codes if c != 0]

        plain, traced, n_ops, more_failures = measure(
            cli, workload, args.seed, args.seconds, workdir, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted += n_ops
        failures += more_failures

    prov = provenance(workload, args.seed, inputs0)
    if tracer is None:
        tail_s, tail_pct, beyond = tail(plain)
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s.p50": statistics.median(plain),
            "wall_s.tail": tail_s,
            "walk_steps_per_s": len(plain) * workload.scenario_steps_per_pass / sum(plain),
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
        notes = [f"setup samples (s): {', '.join(f'{s:.4f}' for s in setup_samples)}",
                 f"wall_s.tail is p{tail_pct:.1f} of {len(plain)} passes ({beyond} beyond it)"]
    else:
        values = tracing.layer_metrics(tracer, sum(op.scenarios for op in workload.ops),
                                       plain, traced)
        units = dict(tracing.PER_LAYER)
        span_file = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(span_file, prov)
        notes = [f"traced passes {len(traced)}, untraced passes {len(plain)}",
                 f"spans kept {len(tracer.spans)}, dropped {tracer.dropped}, "
                 f"written to {span_file.relative_to(ROOT)}",
                 f"absent names: {', '.join(tracer.absent) or 'none'}"]

    failed = len(failures)
    print(f"workload {workload.name}: {workload.why}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"passes {len(plain) + len(traced)}; ops attempted {attempted}, failed {failed}; "
          f"failed_ops_frac {failed / attempted:.6g}")
    for line in notes:
        print(line)
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    for name, value in values.items():
        print(f"  {name:32s} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(proc.stdout.splitlines()[:-1]))
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(results)
    rows = [("failed_ops_frac", "frac", [r["failed"] / r["attempted"] for r in results.values()])]
    if args.trace:
        import tracing
    for metric, unit in (tracing.PER_LAYER if args.trace else END_TO_END):
        rows.append((metric, unit, [r["metrics"][metric]["value"] for r in results.values()]))
    print(f"\n{'metric':32s} {'unit':10s}" + "".join(f"{n:>16s}" for n in names))
    for metric, unit, values in rows:
        print(f"{metric:32s} {unit:10s}" + "".join(f"{v:16.6g}" for v in values))
    ok = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0 if ok else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="pass time to measure (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


if __name__ == "__main__":
    args = parse_args()
    sys.exit(run_all(args) if args.workload == "all" else run_workload(args))
