"""The repository benchmark: executed stencil runs, end to end and by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload halo_layout --seed 1 --seconds 35 --trace 0

A closed loop with one client: one ``repro.core.driver.run_executed``
call at a time, all with the same seed-derived input, until
``--seconds`` have passed.  Every call's result is compared bit for bit
with the serial reference and its deterministic counts with the first
call's.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced calls and prints the per-layer metrics.
The last line of standard output is one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
TRACED_STEP_CALLS = 3  # traced calls whose steps feed the percentiles


def _fail(msg: str, code: int) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return code


def _peak_rss_reset() -> bool:
    """Reset the kernel's peak-RSS mark of this process (VmHWM)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def _peak_rss_mib() -> float:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(backend: set) -> dict:
    import numpy

    try:
        import cffi

        cffi_version = cffi.__version__
    except ImportError:
        cffi_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cffi": cffi_version,
        "nproc": len(os.sched_getaffinity(0)),
        "repro_env": {
            k: v for k, v in sorted(os.environ.items())
            if k.startswith("REPRO_")
        },
        "kernel_backend": sorted(backend) or ["none"],
    }


class Bench:
    """One workload in one process: reference, calls and checks."""

    def __init__(self, workload, seed: int) -> None:
        from repro.stencil.reference import apply_periodic_reference

        from probes import Backend

        self.w = workload
        self.seed = seed
        self.problem = workload.problem()
        self.points = self.problem.global_points
        self.nranks = self.problem.nranks
        self.backend = Backend()
        self._backend_patch = self.backend.install().__enter__()
        init = self.problem.initial_global(seed)
        self.reference = apply_periodic_reference(
            init, self.problem.stencil, workload.timesteps
        )
        self.signature = None
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def close(self) -> None:
        self._backend_patch.__exit__(None, None, None)

    def call(self, patch):
        """One run_executed call under *patch*; returns (run, wall clock
        at call and return, process CPU clock at call and return), or
        None when it raised or failed a check (counted as failed)."""
        from repro.core.driver import run_executed
        from repro.obs import METRICS, TRACER

        kw = self.w.run_kwargs()
        ckdir = None
        if self.w.checkpoint_period is not None:
            ckdir = tempfile.mkdtemp(prefix="ckpt-", dir=WORK)
            kw["checkpoint_dir"] = ckdir
        gc.collect()
        self.attempted += 1
        try:
            with patch:
                c0, t0 = time.process_time(), time.perf_counter()
                run = run_executed(
                    self.problem, self.w.method, seed=self.seed, **kw
                )
                t1, c1 = time.perf_counter(), time.process_time()
        except Exception:  # noqa: BLE001 - counted, reported, run goes on
            self.failed += 1
            self.errors.append(traceback.format_exc(limit=3))
            return None
        finally:
            if ckdir is not None:
                shutil.rmtree(ckdir, ignore_errors=True)
        problems = self.check(run)
        if TRACER.enabled or METRICS.enabled:
            problems.append("repro.obs tracing was enabled")
        if problems:
            self.failed += 1
            self.errors.append("; ".join(problems))
            return None
        return run, (t0, t1), (c0, c1)

    def check(self, run) -> list:
        import numpy as np

        problems = []
        got, ref = run.global_result, self.reference
        if got.shape != ref.shape or got.dtype != ref.dtype or not np.array_equal(
            got.view(np.uint64), ref.view(np.uint64)
        ):
            problems.append("result differs from the serial reference")
        stats = run.fabric.total_stats()
        sig = {
            "messages_per_rank": run.messages_per_rank,
            "wire_bytes_per_rank": run.wire_bytes_per_rank,
            "fabric_sends": stats.sends,
            "fabric_bytes": stats.bytes_sent,
            "checkpoint_saves": run.checkpoint_saves,
            "checkpoint_bytes": run.checkpoint_bytes,
            "mapping_count": run.mapping_count,
            "final_method": run.final_method,
            "overlap": run.overlap,
        }
        if self.signature is None:
            self.signature = sig
        elif sig != self.signature:
            diff = {k: (self.signature[k], v) for k, v in sig.items()
                    if self.signature[k] != v}
            problems.append(f"deterministic counts changed: {diff}")
        if run.overlap != self.w.overlap:
            problems.append(f"ExecutedRun.overlap is {run.overlap}")
        return problems

    def check_path(self, first_kind: dict) -> bool:
        """Every rank thread's first engine call is the expected kind;
        *first_kind* maps thread names to that kind."""
        from probes import rank_of

        kinds = {k for name, k in first_kind.items() if rank_of(name) >= 0}
        ranks = sum(1 for name in first_kind if rank_of(name) >= 0)
        if kinds == {self.w.engine} and ranks == self.nranks:
            return True
        self.failed += 1
        self.errors.append(
            f"loop path: ranks fired {sorted(kinds)} ({ranks} ranks),"
            f" expected {self.w.engine} on {self.nranks}"
        )
        return False

    def untraced(self):
        """One untraced call; returns its end-to-end numbers on the wall
        and the CPU clock, ``{"wall": ..., "cpu": ...}``, or None."""
        from analysis import e2e
        from probes import Stamps

        stamps = Stamps()
        out = self.call(stamps.patch())
        if out is None or not self.check_path(
            {name: k for name, (_, _, k) in stamps.first_engine.items()}
        ):
            return None
        _, wall, cpu = out
        # Set-up ends at the last rank's first engine call, on both clocks.
        wall_end, cpu_end, _ = max(stamps.first_engine.values())
        _, spmd_wall, spmd_cpu = stamps.spmd
        steps = self.w.timesteps
        return {
            "wall": e2e(*wall, wall_end, spmd_wall, self.points, steps),
            "cpu": e2e(*cpu, cpu_end, spmd_cpu, self.points, steps),
        }

    def traced(self, spans, run_id: int, capture: bool):
        """One traced call; returns (layers, stamps, steps, e2e, run)."""
        from analysis import e2e, engine_starts, layers

        before = len(spans.spans)
        out = self.call(spans.patch(run_id, capture_sizes=capture))
        if out is None:
            return None
        run, (t0, t1), _ = out
        mine = spans.spans[before:]
        first = {th: st[0][1] for th, st in engine_starts(mine).items()}
        if not self.check_path(first):
            return None
        layer, stamps, steps = layers(
            mine, t0, t1, self.nranks, self.w.timesteps
        )
        ee = e2e(t0, t1, stamps["setup_end"], stamps["spmd_end"],
                 self.points, self.w.timesteps)
        return layer, stamps, steps, ee, run

    def refuse_backend(self):
        """Why the run must not be compared, if another kernel backend
        served it.  Nothing served means no brick plan was compiled, which
        only happens when calls failed; those already count as failed."""
        served = sorted(self.backend.served)
        if served and served != [self.w.backend]:
            return (
                f"kernel backend {served} served the run; workload"
                f" {self.w.name} is defined on {self.w.backend!r}. Runs on"
                " another backend are a different program and are not"
                " compared"
            )
        return None


def _median(values) -> float:
    return statistics.median(list(values))


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return f"q1={q1:.6g} q3={q3:.6g} iqr/median={(q3 - q1) / med:.3f} n={len(values)}"


# Per-call series: metric name -> (clock, e2e() key, unit).  The gated
# end-to-end metrics use the process CPU clock; the wall-clock ones are
# reported beside them (and as per-layer metrics of traced runs).
SERIES = {
    "setup_s": ("cpu", "setup_s", "s"),
    "mstencil_per_cpu_s": ("cpu", "mstencil", "Mupdates/cpu-s"),
    "run_cpu_s": ("cpu", "run_s", "s"),
    "wall.setup_s": ("wall", "setup_s", "s"),
    "wall.mstencil_per_s": ("wall", "mstencil", "Mpoint-updates/s"),
    "wall.run_s": ("wall", "run_s", "s"),
}


def series(calls: list) -> dict:
    return {name: [c[clock][key] for c in calls]
            for name, (clock, key, _) in SERIES.items()}


def run_untraced(bench, seconds: float, record: dict) -> dict:
    calls = []
    _peak_rss_reset()
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(calls) < 3) and bench.attempted < 10_000:
        got = bench.untraced()
        if got is not None:
            calls.append(got)
        elif bench.failed > 5 and not calls:
            break
    peak = _peak_rss_mib()
    if not calls:
        return {}
    samples = record["samples"] = series(calls)
    metrics = {k: _median(v) for k, v in samples.items()}
    metrics["peak_rss_mb"] = peak
    for k, v in samples.items():
        print(f"{k:20s} {metrics[k]:.6g} {SERIES[k][2]}  {_spread(v)}")
    print(f"{'peak_rss_mb':20s} {peak:.6g} MiB  (process peak)")
    return metrics


def run_traced(bench, seconds: float, record: dict, units: dict) -> dict:
    from analysis import percentile
    from floors import copy_floor_s, dram_copy, kernel_floor, llc_bytes
    from probes import Spans

    dram = dram_copy(llc_bytes())
    kfloor = kernel_floor(bench.w, bench.problem)
    record["floors"] = {"dram": dram, "kernel": kfloor}
    print(
        f"floor: DRAM copy {dram['copy_gib_s']:.3f} GiB/s on a"
        f" {dram['working_set_mib']:.0f} MiB working set (LLC"
        f" {dram['llc_mib']:.0f} MiB); kernel alone"
        f" {1e3 * kfloor['seconds']:.4f} ms per rank-step"
    )
    spans = Spans()
    plain, traced = [], []
    step_ms = []
    start = time.perf_counter()
    run_id = 0
    while (time.perf_counter() - start < seconds
           or len(traced) < TRACED_STEP_CALLS) and run_id < 10_000:
        got = bench.untraced()
        if got is not None:
            plain.append(got)
        out = bench.traced(spans, run_id, capture=(run_id == 0))
        run_id += 1
        if out is None:
            if bench.failed > 5 and not traced:
                break
            continue
        layer, stamps, steps, ee, run = out
        traced.append((layer, stamps, ee, run))
        if len(traced) <= TRACED_STEP_CALLS:
            step_ms.extend(steps)
    if not traced or not plain:
        return {}
    nrs = bench.nranks * bench.w.timesteps
    floor_s = copy_floor_s(spans.recv_sizes, bench.w.timesteps)
    run = traced[0][3]
    stats = run.fabric.total_stats()
    m = {k: _median(t[0][k] for t in traced) for k in traced[0][0]}
    m.update({
        "core.step_p50_ms": percentile(step_ms, 50),
        "core.step_p90_ms": percentile(step_ms, 90),
        "core.step_samples": len(step_ms),
        "core.failed_frac": bench.failed / bench.attempted,
        "simmpi.transfers_per_step": stats.sends / nrs,
        "simmpi.bytes_per_step": stats.bytes_sent / nrs,
        "simmpi.recv_over_copy_floor": m["simmpi.recv_ms"] / (1e3 * floor_s),
        "exchange.messages_per_rank": run.messages_per_rank,
        "exchange.wire_bytes_per_rank": run.wire_bytes_per_rank,
        "exchange.padding_fraction": run.padding_fraction,
        "stencil.kernel_floor_ms": 1e3 * kfloor["seconds"],
        "stencil.calc_over_floor": m["stencil.calc_ms"]
        / (1e3 * kfloor["seconds"]),
        "stencil.point_updates_per_step": kfloor["points"],
        "stencil.computed_bytes_per_step": kfloor["bytes"],
        "vmem.mapping_count": run.mapping_count,
        "ckpt.saves": run.checkpoint_saves,
        "ckpt.bytes": run.checkpoint_bytes,
        "trace.overhead_ratio": _median(t[2]["run_s"] for t in traced)
        / _median(p["wall"]["run_s"] for p in plain),
        "trace.loop_ratio": _median(t[2]["loop_s"] for t in traced)
        / _median(p["wall"]["loop_s"] for p in plain),
    })
    m.update({k: _median(v) for k, v in series(plain).items()
              if k.startswith("wall.")})
    print(f"floor: copy of rank 0's received messages {1e3 * floor_s:.4f}"
          f" ms per rank-step ({len(spans.recv_sizes)} messages)")
    # Where the loop time goes, per rank-step, against the untraced loop.
    splits = [t[1]["split"] for t in traced]
    keys = sorted({k for s in splits for k in s})
    split = {k: _median(s.get(k, 0.0) for s in splits) for k in keys}
    plain_loop = 1e3 * _median(p["wall"]["loop_s"] for p in plain) / bench.w.timesteps
    traced_loop = 1e3 * _median(t[2]["loop_s"] for t in traced) / bench.w.timesteps
    print(f"loop per step: traced {traced_loop:.4f} ms, untraced"
          f" {plain_loop:.4f} ms; per rank-step self times (ms):")
    for k in keys:
        print(f"  {k:22s} {split[k]:.4f}")
    print(f"  {'sum of medians':22s} {sum(split.values()):.4f}")
    record["loop_split_ms"] = split
    record["traced_calls"] = len(traced)
    record["untraced_calls"] = len(plain)
    spans_path = WORK / f"spans-{bench.w.name}-seed{bench.seed}.json"
    with open(spans_path, "w") as fh:
        json.dump({
            "fields": ["id", "name", "start", "end", "parent", "thread",
                       "run"],
            "spans": spans.spans,
        }, fh)
    for k in sorted(m):
        print(f"{k:32s} {m[k]:.6g} {units[k]}")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no repro sources under {ROOT / 'src'}", 2)
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return _fail("BENCHMARK.json is missing", 2)
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    # Every file the run writes stays inside the checkout: kernel builds
    # and checkpoint stores go to the work directory.
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(WORK / "tmp")
    tempfile.tempdir = str(WORK / "tmp")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from floors import calibrate, steal_s
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r};"
                     f" choose from {sorted(WORKLOADS)}", 2)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host_before": calibrate()}
    bench = Bench(WORKLOADS[args.workload], args.seed)
    try:
        bench.untraced()  # warm-up: kernel builds, first-touch, imports
        refusal = bench.refuse_backend()
        if refusal:
            return _fail(refusal, 3)
        record["env"] = environment(bench.backend.served)
        t0, stolen0 = time.perf_counter(), steal_s()
        if args.trace:
            metrics = run_traced(bench, args.seconds, record, units)
        else:
            metrics = run_untraced(bench, args.seconds, record)
        record["steal_frac"] = (steal_s() - stolen0) / (
            (time.perf_counter() - t0) * os.cpu_count()
        )
        refusal = bench.refuse_backend()
        if refusal:
            return _fail(refusal, 3)
    finally:
        bench.close()
    record["host_after"] = calibrate()
    record["signature"] = bench.signature
    record["errors"] = bench.errors
    print(f"env: {json.dumps(record['env'], sort_keys=True)}")
    print(f"host before: {record['host_before']}  after:"
          f" {record['host_after']}; CPU time stolen by the hypervisor"
          f" during the calls: {100 * record['steal_frac']:.1f}%")
    for err in bench.errors[:5]:
        print(f"FAILED: {err}")
    out_path = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record["metrics"] = metrics
    out_path.write_text(json.dumps(record, indent=1, default=str))
    missing = [k for k in units if k not in metrics]
    if missing:
        return _fail(f"no measurement for {missing}", 1)
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            k: {"value": float(metrics[k]), "unit": unit}
            for k, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
