"""Floors and host context, measured in the benchmark's own process.

* Copy floor: one thread copying one rank-step's received messages, in
  their real per-message sizes (``simmpi.recv_over_copy_floor``).
* Kernel floor: one rank's compiled stencil plan executed alone on one
  thread (``stencil.kernel_floor_ms``).
* DRAM copy bandwidth on a working set of four times the last-level
  cache, so the copy cannot be served from cache.
* Host calibration: a short memcpy and pure-Python loop rate, taken
  before and after each workload, and the CPU time the hypervisor stole
  from the VM while the calls ran, to show how fast the shared host was.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from typing import Dict, Sequence

import numpy as np

MIB = 1 << 20


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def copy_floor_s(sizes: Sequence[int], steps: int, budget_s: float = 0.3) -> float:
    """Seconds per rank-step to copy *sizes* (all of one rank's receives
    over *steps* steps) with one thread, buffer by buffer."""
    pairs = [(np.ones(n, np.uint8), np.empty(n, np.uint8)) for n in sizes]

    def copy_all():
        for src, dst in pairs:
            np.copyto(dst, src)

    copy_all()
    once = max(_median_time(copy_all, 3), 1e-6)
    reps = max(5, min(200, int(budget_s / once)))
    return _median_time(copy_all, reps) / steps


def kernel_floor(workload, problem, budget_s: float = 0.3) -> Dict[str, float]:
    """One rank's compiled plan, executed alone: time and work per step.

    Rebuilds rank 0's plan with the same public calls `core.driver` makes
    (exchange period 1), so the floor runs the kernel the loop runs.
    Returns seconds per rank-step, point updates per rank-step and the
    plan's operand bytes per rank-step (computed, not measured).
    """
    from repro.core.expansion import (
        brick_cycle_slots,
        depths_for_period,
        margins_for_period,
    )
    from repro.core.methods import method_info
    from repro.hardware.profiles import generic_host
    from repro.stencil.plan import compile_array_plan, compile_brick_plan

    spec = problem.stencil
    ext, g = problem.subdomain_extent, problem.ghost
    rng = np.random.default_rng(0)
    closers = []
    if method_info(workload.method).uses_bricks:
        from repro.brick.decomp import BrickDecomp

        decomp = BrickDecomp(
            ext, problem.brick_dim, g, problem.layout, problem.dtype
        )
        if workload.method == "memmap":
            page = generic_host().page_size
            src, asn = decomp.mmap_alloc(page)
            dst, _ = decomp.mmap_alloc(page)
        else:
            src, asn = decomp.allocate()
            dst, _ = decomp.allocate()
        closers = [src, dst]
        src.data[...] = rng.random(src.data.shape)
        slots = brick_cycle_slots(
            decomp, asn, spec.radius, depths_for_period(1, decomp.width)
        )[0]
        plan = compile_brick_plan(
            spec, decomp.brick_info(asn), slots, 0, problem.dtype
        )
        points = len(slots) * decomp.brick_volume
    else:
        margin = margins_for_period(1, spec.radius, g)[0]
        shape = tuple(e + 2 * g for e in reversed(ext))
        src = rng.random(shape)
        dst = np.zeros_like(src)
        plan = compile_array_plan(spec, ext, g, margin, problem.dtype)
        points = math.prod(e + 2 * margin for e in ext)
    try:
        def step():
            plan.execute(src, dst)

        once = max(_median_time(step, 3), 1e-6)
        reps = max(5, min(200, int(budget_s / once)))
        seconds = _median_time(step, reps)
    finally:
        for st in closers:
            st.close()
    itemsize = np.dtype(problem.dtype).itemsize
    return {
        "seconds": seconds,
        "points": points,
        "bytes": points * (len(spec.taps) + 1) * itemsize,
    }


def llc_bytes() -> int:
    """Size of the last-level cache the kernel reports, 0 if unknown."""
    import glob

    best = 0
    for path in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*/size"):
        with open(path) as fh:
            raw = fh.read().strip()
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(raw[-1:], 1)
        digits = raw.rstrip("KMG")
        if digits.isdigit():
            best = max(best, int(digits) * scale)
    return best


def dram_copy(llc: int, reps: int = 3) -> Dict[str, float]:
    """Sustained single-thread copy bandwidth with a working set of
    source + destination = 4 x LLC (at least 256 MiB)."""
    working = max(4 * llc, 256 * MIB)
    src = np.ones(working // 2 // 8, np.float64)
    dst = np.zeros_like(src)
    np.copyto(dst, src)
    seconds = _median_time(lambda: np.copyto(dst, src), reps)
    return {
        "llc_mib": llc / MIB,
        "working_set_mib": working / MIB,
        "copy_gib_s": (working // 2) / seconds / (1 << 30),
    }


def calibrate() -> Dict[str, float]:
    """Short host-speed probe: 8 MiB memcpy rate and a Python loop rate."""
    src = np.ones(MIB, np.float64)
    dst = np.empty_like(src)
    t_copy = _median_time(lambda: np.copyto(dst, src), 15)

    def spin():
        acc = 0
        for i in range(200_000):
            acc += i
        return acc

    t_loop = _median_time(spin, 5)
    return {
        "memcpy_gib_s": src.nbytes / t_copy / (1 << 30),
        "py_loop_mops": 0.2 / t_loop,
    }


def steal_s() -> float:
    """CPU seconds the hypervisor has stolen from this VM, all CPUs."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")
