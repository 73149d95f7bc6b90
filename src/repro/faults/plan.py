"""Deterministic, seeded fault plans.

A :class:`FaultPlan` is a *pure-literal* description of what should go
wrong during a run: per-edge wire-fault probabilities, scheduled rank
crashes, and scheduled MemMap degradation events.  Every decision is a
pure function of ``(seed, src, dst, tag, seq)`` -- each message gets its
own counter-based :class:`numpy.random.Generator` stream -- so the fault
schedule is bit-reproducible regardless of thread interleaving: the same
seed always drops/corrupts/duplicates exactly the same messages, which is
what lets the chaos CI gate exact-compare injected-event counts.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Mapping, Optional, Tuple

import numpy as np

__all__ = ["FaultPlan", "RetryPolicy"]

#: domain-separation constant mixed into every per-message seed sequence
_STREAM_SALT = 0x9E3779B9

#: wire-fault kinds in decision order (first match wins)
_WIRE_KINDS = ("drop", "corrupt", "duplicate", "delay")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry-with-backoff for detected exchange faults."""

    max_retries: int = 8
    backoff_s: float = 0.002
    max_backoff_s: float = 0.05

    def sleep_for(self, attempt: int) -> float:
        """Backoff before retry *attempt* (0-based), exponential, capped."""
        return min(self.backoff_s * (2.0 ** attempt), self.max_backoff_s)


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of every fault to inject into one run.

    Probabilities apply per *message transmission* on the simulated wire
    (exchange traffic only; collective/control traffic is verified but
    never faulted, so healing protocols stay analyzable).  Retransmits of
    an already-faulted message are always clean -- one fault per logical
    message -- mirroring the standard fault model of checksummed halo
    frameworks.

    ``edge_overrides`` maps ``(src, dst)`` rank pairs (or ``"src,dst"``
    strings, for JSON-friendly literals) to per-edge probability dicts.

    ``crashes`` is a tuple of ``(rank, step)`` pairs: the rank raises
    :class:`~repro.faults.errors.InjectedCrashError` at the top of that
    timestep.  ``degrade`` is a tuple of ``(rank, step)`` pairs at which
    the rank's MemMap machinery is made to fail (through the real
    ``vmem`` mapping path), triggering the MemMap->Layout->Pack
    demotion vote.

    ``deaths`` is a tuple of ``(rank, step)`` pairs scheduling
    *permanent* rank loss (node failure): the rank marks itself dead on
    the fabric and raises
    :class:`~repro.faults.errors.RankDeadError` at the top of that
    timestep.  Unlike ``crashes``, deaths are never survivable in place
    -- a relaunch at the same rank count would just die again -- so
    recovery goes through the elastic-restart path, which reshapes the
    world onto the surviving ranks.
    """

    seed: int = 0
    drop: float = 0.0
    corrupt: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    delay_s: float = 0.001
    edge_overrides: Mapping = field(default_factory=dict)
    crashes: Tuple[Tuple[int, int], ...] = ()
    degrade: Tuple[Tuple[int, int], ...] = ()
    deaths: Tuple[Tuple[int, int], ...] = ()

    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        for kind in _WIRE_KINDS:
            p = getattr(self, kind)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{kind} probability {p} outside [0, 1]")
        total = sum(getattr(self, k) for k in _WIRE_KINDS)
        if total > 1.0:
            raise ValueError(
                f"wire-fault probabilities sum to {total}, must be <= 1"
            )

    @property
    def any_wire_faults(self) -> bool:
        if any(getattr(self, k) > 0.0 for k in _WIRE_KINDS):
            return True
        return bool(self.edge_overrides)

    @property
    def loses_messages(self) -> bool:
        """True when any edge may drop or corrupt a message -- the faults
        only a whole-exchange retry heals."""
        kinds = ("drop", "corrupt")
        if any(getattr(self, k) > 0.0 for k in kinds):
            return True
        return any(
            float(o.get(k, 0.0)) > 0.0
            for o in self.edge_overrides.values()
            for k in kinds
        )

    # ------------------------------------------------------------------
    def _edge_probs(self, src: int, dst: int) -> Tuple[float, ...]:
        override = self.edge_overrides.get((src, dst))
        if override is None:
            override = self.edge_overrides.get(f"{src},{dst}")
        if override is None:
            return tuple(getattr(self, k) for k in _WIRE_KINDS)
        return tuple(
            float(override.get(k, getattr(self, k))) for k in _WIRE_KINDS
        )

    def _rng(self, *key: int) -> np.random.Generator:
        """Counter-based stream: one generator per decision key."""
        return np.random.default_rng(
            [_STREAM_SALT, int(self.seed) & 0xFFFFFFFF, *[int(k) for k in key]]
        )

    def decide(self, src: int, dst: int, tag: int, seq: int) -> Optional[str]:
        """Wire fault (if any) for this transmission; None = deliver clean.

        Deterministic: depends only on the plan seed and the message's
        identity, never on wall-clock or thread scheduling.
        """
        probs = self._edge_probs(src, dst)
        if not any(probs):
            return None
        r = float(self._rng(src, dst, tag, seq).random())
        cum = 0.0
        for kind, p in zip(_WIRE_KINDS, probs):
            cum += p
            if r < cum:
                return kind
        return None

    def corrupt_byte(self, src: int, dst: int, tag: int, seq: int,
                     nbytes: int) -> Tuple[int, int]:
        """(byte offset, XOR mask) of the injected corruption."""
        rng = self._rng(src, dst, tag, seq, 1)
        offset = int(rng.integers(0, max(1, nbytes)))
        mask = int(rng.integers(1, 256))  # never 0: must actually flip bits
        return offset, mask

    # ------------------------------------------------------------------
    def crash_due(self, rank: int, step: int) -> bool:
        return (rank, step) in self.crashes

    def degrade_due(self, rank: int, step: int) -> bool:
        return (rank, step) in self.degrade

    def death_due(self, rank: int, step: int) -> bool:
        return (rank, step) in self.deaths

    @property
    def dead_ranks(self) -> Tuple[int, ...]:
        """Ranks scheduled to die permanently, sorted and deduplicated."""
        return tuple(sorted({r for r, _ in self.deaths}))

    @property
    def max_degrade_step(self) -> int:
        """Last scheduled degradation step (-1 when none)."""
        return max((s for _, s in self.degrade), default=-1)

    def to_literal(self) -> dict:
        """JSON-ready dict the plan can be rebuilt from."""
        doc = asdict(self)
        doc["edge_overrides"] = {
            (k if isinstance(k, str) else f"{k[0]},{k[1]}"): dict(v)
            for k, v in self.edge_overrides.items()
        }
        doc["crashes"] = [list(c) for c in self.crashes]
        doc["degrade"] = [list(d) for d in self.degrade]
        doc["deaths"] = [list(d) for d in self.deaths]
        return doc

    @classmethod
    def from_literal(cls, doc: Mapping) -> "FaultPlan":
        doc = dict(doc)
        doc["crashes"] = tuple(tuple(c) for c in doc.get("crashes", ()))
        doc["degrade"] = tuple(tuple(d) for d in doc.get("degrade", ()))
        doc["deaths"] = tuple(tuple(d) for d in doc.get("deaths", ()))
        return cls(**doc)
