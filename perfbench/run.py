"""Benchmark of noonlike: one workload, one seed, metrics as one JSON line.

    python3 perfbench/run.py --workload budget-sweep --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Every run measures set-up (fresh interpreters importing the
package), then attempts whole rounds of operations for ``--seconds`` in one
process on one thread, then measures the allocation peak of one more round,
and only then checks every output against ``refs``.  With ``--trace 1`` it
also runs a second, traced phase of the same length and prints the
per-layer metrics instead of the end-to-end ones.  The last line of stdout
is the JSON result.  The lines before it repeat the metrics for reading, each
reported time with its raw wall-clock value beside it, and the line before
the result holds the raw end-to-end values as ``raw {...}``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

# one thread for numpy's linear algebra, here and in every child process;
# set before anything imports numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("NOONLIKE_OUTPUT_DIR", None)  # would send figure output to files

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 15
SETUP_CODE = (
    "import time; t0 = time.perf_counter()\n"
    "import numpy; t1 = time.perf_counter()\n"
    "import noonlike, noonlike.cli; t2 = time.perf_counter()\n"
    "noonlike.circuit.default_circuit_config()\n"
    "print(t1 - t0, t2 - t1, noonlike.__file__)\n"
)


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _timed_child(code: str, env: dict) -> tuple[float, str]:
    """(wall ms, stdout) of one fresh interpreter running ``code``."""
    start = time.perf_counter_ns()
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)
    wall_ms = (time.perf_counter_ns() - start) / 1e6
    if proc.returncode != 0:
        _fail(f"set-up child failed: {proc.stderr.decode(errors='replace')[-500:]}")
    return wall_ms, proc.stdout.decode()


def measure_setup(env: dict, trace: bool) -> tuple[float, float, dict]:
    """Median set-up time in seconds, scaled and raw, and the per-layer start-up times in ms.

    Bare interpreters (``speed.start_ms``) run before, between and after the
    children, and each child is scaled by the two around it.  With ``trace``
    a ``python -c pass`` child follows each set-up child, for
    ``cli.python_start_ms``.
    """
    _timed_child(SETUP_CODE, env)  # fills the bytecode and file caches
    probes = [speed.start_ms(sys.executable, env)]

    def scaled_child(code: str) -> tuple[float, float, str]:
        wall, out = _timed_child(code, env)
        probes.append(speed.start_ms(sys.executable, env))
        return wall, speed.scale(probes[-2], probes[-1], speed.REF_START_MS), out

    walls, scaled, numpy_ms, import_ms, starts = [], [], [], [], []
    for _ in range(SETUP_SAMPLES):
        wall, factor, out = scaled_child(SETUP_CODE)
        t_numpy, t_import, path = out.split()
        if Path(path).resolve().parent.parent != SRC:
            _fail(f"set-up child imported noonlike from {path}, not from {SRC}")
        walls.append(wall)
        scaled.append(wall * factor)
        numpy_ms.append(1e3 * float(t_numpy) * factor)
        import_ms.append(1e3 * float(t_import) * factor)
        if trace:
            wall, factor, _ = scaled_child("pass")
            starts.append(wall * factor)
    layers = {
        "cli.numpy_import_ms": statistics.median(numpy_ms),
        "cli.import_ms": statistics.median(import_ms),
    }
    if trace:
        layers["cli.python_start_ms"] = statistics.median(starts)
    return statistics.median(scaled) / 1e3, statistics.median(walls) / 1e3, layers


def _probe(workload, env: dict):
    """(probe, its reference ms) that suits the workload's operations; see speed.py."""
    if workload.in_process:
        return speed.calibration_ms, speed.REF_MS
    return functools.partial(speed.start_ms, sys.executable, env), speed.REF_START_MS


def timed_phase(workload, seconds: float, probe, tracer=None):
    """Whole rounds until ``seconds`` have passed; (ops, records, scaled and raw latencies in ms).

    The speed probe runs between consecutive operations, so each operation
    is scaled by the probes right before and after it.
    """
    probe_ms, ref_ms = probe
    ops, records, lat_ms, raw_ms = [], [], [], []
    clock = time.perf_counter_ns
    start = clock()
    cal = probe_ms()
    while not ops or clock() - start < seconds * 1e9:
        for op in workload.next_round():
            if tracer is not None:
                tracer.begin_op(len(ops))
            t0 = clock()
            try:
                out = workload.run(op)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = workloads.Error(type(exc).__name__, str(exc)[:300])
            t1 = clock()
            if tracer is not None:
                tracer.close_op(t0, t1)
                if not workload.in_process:
                    workload.run_in_process(op)  # the same argv through cli.main
            cal_next = probe_ms()
            factor = speed.scale(cal, cal_next, ref_ms)
            cal = cal_next
            if tracer is not None:
                tracer.end_op(factor)
            ops.append(op)
            records.append(out if isinstance(out, workloads.Error) else workload.record(op, out))
            raw_ms.append((t1 - t0) / 1e6)
            lat_ms.append(raw_ms[-1] * factor)
    return ops, records, lat_ms, raw_ms


def alloc_peak_mib(workload) -> float:
    """Largest tracemalloc peak of one operation over one in-process round."""
    run = workload.run if workload.in_process else workload.run_in_process
    tracemalloc.start()
    peak = 0
    try:
        for op in workload.next_round():
            gc.collect()  # the same collector state before every operation
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                run(op)
            except Exception:  # failures are counted in the timed phases
                pass
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peak / 2**20


def per_layer_metrics(tracer, untraced_ms: list[float], traced_ms: list[float]) -> dict:
    m = {}
    for span in ("states.moments", "states.fock_amplitudes", "qcrb.closed_form"):
        calls, self_ms, _ = tracer.per_op(span)
        m[f"{span}.calls"] = (calls, "count")
        m[f"{span}.self_ms"] = (self_ms, "ms")
    m["qcrb.mean_total_photons.calls"] = (tracer.per_op("qcrb.mean_total_photons")[0], "count")
    calls, self_ms, _ = tracer.per_op("families.solve")
    m["families.solve.calls"] = (calls, "count")
    m["families.solve.self_ms"] = (self_ms, "ms")
    m["families.solve.nbar_evals"] = (tracer.nbar_evals_per_solve(), "count")
    for span in ("families.compare", "families.sweep", "circuit.inject", "circuit.elements",
                 "circuit.post_select", "circuit.decompose"):
        m[f"{span}.self_ms"] = (tracer.per_op(span)[1], "ms")
    ops = max(tracer.ops, 1)
    counts = tracer.counters
    for kind in ("injected", "carried", "kept"):
        m[f"circuit.fock_entries.{kind}"] = (counts[f"circuit.fock_entries.{kind}"] / ops, "count")
    carried = counts["circuit.fock_entries.carried"]
    m["circuit.kept_ratio"] = (counts["circuit.fock_entries.kept"] / carried if carried else 0.0, "ratio")
    m["cli.main_ms"] = (tracer.per_op("cli.main")[2], "ms")
    m["cli.process_ms"] = (tracer.per_op("op")[2] if tracer.calls.get("cli.main") else 0.0, "ms")
    untraced = sum(untraced_ms) / len(untraced_ms)
    traced = sum(traced_ms) / len(traced_ms)
    m["trace.overhead_pct"] = (100.0 * (traced / untraced - 1.0), "%")
    return m


def end_to_end_metrics(setup_s: float, lat_ms: list[float], peak_mib: float) -> dict:
    p90 = statistics.quantiles(lat_ms, n=10)[8] if len(lat_ms) > 1 else lat_ms[0]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (1e3 * len(lat_ms) / sum(lat_ms), "ops/s"),
        "op_ms_p50": (statistics.median(lat_ms), "ms"),
        "op_ms_p90": (p90, "ms"),
        "alloc_peak_mib": (peak_mib, "MiB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "noonlike" / "__init__.py").is_file():
        _fail(f"no program source at {SRC}/noonlike")
    # one CPU for this process and its children, so that the speed probes
    # around a child process see the speed of the CPU the child ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    env = _child_env()
    import noonlike
    import noonlike.circuit
    import noonlike.cli
    import noonlike.families

    if Path(noonlike.__file__).resolve().parent.parent != SRC:
        _fail(f"imported noonlike from {noonlike.__file__}, not from {SRC}")
    workloads.bind(noonlike)

    setup_s, setup_raw_s, layers = measure_setup(env, bool(args.trace))
    cls = workloads.WORKLOADS[args.workload]
    workload = cls(args.seed) if cls.in_process else cls(args.seed, python=sys.executable, env=env)

    warm = workload.next_round()[:1]  # imports and caches the first call fills
    for op in warm:
        try:
            workload.run(op)
        except Exception:
            pass

    probe = _probe(workload, env)
    ops, records, lat_ms, raw_ms = timed_phase(workload, args.seconds, probe)
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            t_ops, t_records, t_lat, _ = timed_phase(workload, args.seconds, probe, tracer)
        finally:
            tracer.uninstall()
        ops += t_ops
        records += t_records
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    peak = alloc_peak_mib(workload)

    status = workload.check(ops, records)
    failed = sum(s != "ok" for s in status)
    bad = [(op, s) for op, s in zip(ops, status) if s not in ("ok", "known")]
    for op, s in bad[:10]:
        print(f"perfbench: {args.workload} {op}: {s}", file=sys.stderr)

    raw = end_to_end_metrics(setup_raw_s, raw_ms, peak)
    if args.trace:
        metrics = per_layer_metrics(tracer, lat_ms, t_lat)
        metrics.update({name: (value, "ms") for name, value in layers.items()})
    else:
        metrics = end_to_end_metrics(setup_s, lat_ms, peak)
    for name, (value, unit) in metrics.items():
        raw_text = f"  raw {raw[name][0]:14.6f}" if name in raw and unit != "MiB" else ""
        print(f"{args.workload:16s} {name:32s} {value:14.6f} {unit:6s}{raw_text}")
    print(f"{args.workload:16s} {'attempted':32s} {len(ops):14d}")
    print(f"{args.workload:16s} {'failed':32s} {failed:14d}")
    print("raw " + json.dumps({name: value for name, (value, _) in raw.items()}))
    print(json.dumps({
        "correct": not bad,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
