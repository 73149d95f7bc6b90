"""The benchmark's workloads: one executed-run configuration each.

Every workload is a 2x2x2 decomposition of a 64^3 periodic domain with
8^3 bricks and ghost width 8, run through the public
``repro.core.driver.run_executed`` API.  Why each was chosen is in
``README.md``; the one-line reasons also go into ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

GLOBAL_EXTENT = (64, 64, 64)
RANK_DIMS = (2, 2, 2)
BRICK = 8
GHOST = 8


@dataclass(frozen=True)
class Workload:
    name: str
    method: str
    stencil: str  # attribute of repro.stencil.spec
    timesteps: int  # per run_executed call
    engine: str  # engine kind every rank must fire first (probes.py)
    backend: str  # kernel backend that must serve the brick plans
    overlap: bool = False
    verify_wire: bool = False
    checkpoint_period: Optional[int] = None

    def problem(self):
        from repro.core.problem import StencilProblem
        from repro.stencil import spec

        return StencilProblem(
            GLOBAL_EXTENT, RANK_DIMS, getattr(spec, self.stencil),
            brick_dim=BRICK, ghost=GHOST,
        )

    def run_kwargs(self) -> dict:
        """Keyword arguments of run_executed besides problem/method/seed."""
        kw = {"timesteps": self.timesteps}
        if self.overlap:
            kw["overlap"] = True
        if self.verify_wire:
            kw["verify_wire"] = True
        if self.checkpoint_period is not None:
            kw["checkpoint_period"] = self.checkpoint_period
        return kw


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="halo_layout",
            method="layout",
            stencil="SEVEN_POINT",
            timesteps=24,
            engine="channel.exchange",
            backend="cffi",
        ),
        Workload(
            name="cube125_memmap_phased",
            method="memmap",
            stencil="CUBE125",
            timesteps=6,
            engine="channel.start",
            backend="cffi",
            overlap=True,
        ),
        Workload(
            name="pack_verified_ckpt",
            method="yask",
            stencil="SEVEN_POINT",
            timesteps=16,
            engine="exchanger.exchange",
            backend="none",
            verify_wire=True,
            checkpoint_period=4,
        ),
    )
}
