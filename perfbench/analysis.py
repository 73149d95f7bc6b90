"""Turn one call's probe records into end-to-end and per-layer numbers.

Definitions (all from timestamps the probes took around public calls):

* set-up ends when the *last* rank thread makes its first call into its
  exchange engine;
* the loop runs from there until ``run_spmd`` returns;
* a span's self time is its duration minus the time its children (the
  wrapped calls the same thread made while it was open) cover.

Per rank-step values divide a sum over all rank threads by
``nranks * timesteps``; per-run values are sums over rank threads.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from probes import ENGINE_KINDS, Span, rank_of


def e2e(t_call: float, t_ret: float, setup_end: float, spmd_end: float,
        points: int, steps: int) -> Dict[str, float]:
    """Set-up, loop and run seconds of one call, and loop throughput, on
    one clock (wall or process CPU)."""
    loop = spmd_end - setup_end
    return {
        "setup_s": setup_end - t_call,
        "loop_s": loop,
        "run_s": t_ret - t_call,
        "mstencil": points * steps / loop / 1e6,
    }


def bucket(name: str) -> str:
    return name.partition(":")[0]


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    covered: Dict[int, float] = defaultdict(float)
    for sid, _, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    return {s[0]: (s[3] - s[2]) - covered[s[0]] for s in spans}


def engine_starts(spans: Sequence[Span]) -> Dict[str, List[Tuple[float, str]]]:
    """Per rank thread, sorted (start, kind) of its exchange-step calls."""
    out: Dict[str, List[Tuple[float, str]]] = defaultdict(list)
    for _, name, t0, _, parent, thread, _ in spans:
        kind = name.partition(":")[2]
        if bucket(name) == "exchange.engine" and parent < 0 and kind in ENGINE_KINDS:
            out[thread].append((t0, kind))
    for starts in out.values():
        starts.sort()
    return out


def layers(spans: Sequence[Span], t_call: float, t_ret: float, nranks: int,
           steps: int) -> Tuple[Dict[str, float], Dict[str, float], List[float]]:
    """Per-layer metrics of one traced call.

    Returns ``(layer metrics, end-to-end timestamps, step durations)``;
    step durations are one per rank-step, in milliseconds.
    """
    selfs = self_times(spans)
    dur: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    count: Dict[str, int] = defaultdict(int)
    by_id = {s[0]: s for s in spans}
    for s in spans:
        sid, name, t0, t1, parent, _, _ = s
        b = bucket(name)
        count[name] += 1
        # A span nested in one of its own bucket is already counted.
        if parent >= 0 and bucket(by_id[parent][1]) == b:
            continue
        dur[b] += t1 - t0
    for s in spans:
        own[bucket(s[1])] += selfs[s[0]]

    starts = engine_starts(spans)
    setup_end = max(v[0][0] for v in starts.values())
    spmd = [s for s in spans if s[1] == "core.spmd:run_spmd"][0]
    window = (setup_end, spmd[3])
    rank_steps = nranks * steps

    # The loop's self times per bucket: every rank-thread span whose
    # top-level ancestor starts inside the loop window.
    def top(s):
        while s[4] >= 0:
            s = by_id[s[4]]
        return s

    in_loop: Dict[str, float] = defaultdict(float)
    last_end: Dict[str, float] = defaultdict(float)
    for s in spans:
        if rank_of(s[5]) < 0 or top(s)[2] < window[0]:
            continue
        in_loop[bucket(s[1])] += selfs[s[0]]
        if bucket(s[1]) == "stencil.execute":
            last_end[s[5]] = max(last_end[s[5]], s[3])
    loop_self = nranks * (window[1] - window[0]) - sum(in_loop.values())

    step_ms: List[float] = []
    for thread, st in starts.items():
        times = [t for t, _ in st] + [last_end[thread]]
        step_ms.extend(1e3 * (b - a) for a, b in zip(times, times[1:]))

    saves = count["ckpt.save:save"]
    ms = 1e3 / rank_steps
    out = {
        "core.prelaunch_s": spmd[2] - t_call,
        "core.teardown_s": t_ret - spmd[3],
        "core.loop_self_ms": loop_self * ms,
        "simmpi.post_ms": dur["simmpi.post"] * ms,
        "simmpi.recv_ms": dur["simmpi.recv"] * ms,
        "simmpi.send_wait_ms": dur["simmpi.send_wait"] * ms,
        "simmpi.negotiate_s": dur["simmpi.negotiate"],
        "exchange.engine_ms": dur["exchange.engine"] * ms,
        "exchange.self_ms": own["exchange.engine"] * ms,
        "exchange.build_s": own["exchange.build"],
        "stencil.calc_ms": dur["stencil.execute"] * ms,
        "stencil.compile_s": dur["stencil.compile"],
        "brick.geometry_s": own["brick.geometry"],
        "brick.allocate_calls": count["brick.geometry:allocate"]
        + count["brick.geometry:mmap_alloc"],
        "brick.convert_s": dur["brick.convert"],
        "vmem.map_s": dur["vmem.map"],
        "ckpt.save_ms": 1e3 * dur["ckpt.save"] / saves if saves else 0.0,
    }
    # Loop time per rank-step split along the blocking steps: the core
    # remainder plus the self time of every layer called in the loop.
    split = {b: v * ms for b, v in in_loop.items() if v > 0}
    split["core.loop_self"] = loop_self * ms
    stamps = {"setup_end": setup_end, "spmd_end": spmd[3], "split": split}
    return out, stamps, step_ms


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100)."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, int(round(q / 100 * len(ordered))) - 1))
    return ordered[k]
