#!/usr/bin/env python
"""AST lint for the repo's typed-error and fabric-chokepoint invariants.

Plain Python on purpose: the CI lint job has ruff, local dev containers
may not, and these rules are project-specific anyway.  Three checks:

1. **No bare raises in the communication layers.**  Inside
   ``src/repro/simmpi`` and ``src/repro/exchange``, ``raise
   RuntimeError(...)`` / ``raise ValueError(...)`` are forbidden -- the
   chaos classifier and the degradation ladder dispatch on exception
   *types*, so untyped raises silently fall through them.  Use the
   taxonomy in ``repro.faults.errors`` (``ExchangeConfigError``,
   ``ProtocolError``, ``SplitMismatchError``, ...) or a named
   ``RuntimeError`` subclass.

2. **Fabric operations stay behind the chokepoint.**  Direct calls to
   the fabric's transfer primitives (``post_send``, ``complete_recv``,
   the batch forms, ``send_init``/``recv_init``) are only allowed in
   the fabric itself, the communicator shim, and the channel
   (``exchange/base.py``).  Everything else must go through
   ``SimComm``/``ExchangeChannel`` so envelopes, liveness checks and
   split negotiation cannot be bypassed.

3. **One schedule per method.**  Inside ``src/repro/exchange``, only
   ``base.py`` may define ``exchange``, ``message_plan``,
   ``make_channel``, ``_build_channel`` or ``send_specs``, or call
   ``Isend``/``Irecv``/``Waitall``.  A scheme states its message lists
   once and the shared implementation derives the plan, the pricing,
   the channel and the per-message path from them, so a scheme that
   re-implements one of those drifts from the others.

Exit status 1 when any violation is found.  ``--list`` prints the file
set without checking (CI sanity).
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import List, Tuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

#: packages where bare RuntimeError/ValueError raises are forbidden
TYPED_ERROR_PACKAGES = ("simmpi", "exchange")
BARE_RAISES = ("RuntimeError", "ValueError")

#: fabric transfer primitives that must stay behind the chokepoint
FABRIC_OPS = (
    "post_send",
    "complete_recv",
    "post_send_batch",
    "complete_recv_batch",
    "wait_send_batch",
    "send_init",
    "recv_init",
)
#: files allowed to touch them, relative to src/repro
FABRIC_ALLOWLIST = (
    "simmpi/fabric.py",
    "simmpi/comm.py",
    "exchange/base.py",
)

#: run-path methods only the shared implementation may define
SCHEDULE_DEFS = (
    "exchange",
    "message_plan",
    "make_channel",
    "_build_channel",
    "send_specs",
)
#: point-to-point calls only the shared implementation may make
SCHEDULE_CALLS = ("Isend", "Irecv", "Waitall")
SCHEDULE_HOME = "exchange/base.py"

Violation = Tuple[Path, int, str]


def check_bare_raises(path: Path, tree: ast.AST) -> List[Violation]:
    out: List[Violation] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        # `raise ValueError(...)` and bare `raise ValueError`
        name = None
        if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
            name = exc.func.id
        elif isinstance(exc, ast.Name):
            name = exc.id
        if name in BARE_RAISES:
            out.append(
                (
                    path,
                    node.lineno,
                    f"bare `raise {name}`: use a typed error from"
                    " repro.faults.errors (ExchangeConfigError,"
                    " ProtocolError, ...) so the chaos classifier and"
                    " the ladder can dispatch on it",
                )
            )
    return out


def check_fabric_chokepoint(path: Path, tree: ast.AST) -> List[Violation]:
    rel = path.relative_to(SRC).as_posix()
    if rel in FABRIC_ALLOWLIST:
        return []
    out: List[Violation] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if isinstance(fn, ast.Attribute) and fn.attr in FABRIC_OPS:
            out.append(
                (
                    path,
                    node.lineno,
                    f"direct fabric `.{fn.attr}()` call outside the"
                    " chokepoint; go through SimComm or ExchangeChannel"
                    " so envelopes/liveness/split negotiation apply",
                )
            )
    return out


def check_single_schedule(path: Path, tree: ast.AST) -> List[Violation]:
    rel = path.relative_to(SRC).as_posix()
    if not rel.startswith("exchange/") or rel == SCHEDULE_HOME:
        return []
    out: List[Violation] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in SCHEDULE_DEFS:
                out.append((
                    path, node.lineno,
                    f"scheme defines `{node.name}`; state the message"
                    " lists and let PlannedExchanger derive it",
                ))
        elif isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Attribute) and fn.attr in SCHEDULE_CALLS:
                out.append((
                    path, node.lineno,
                    f"scheme calls `.{fn.attr}()`; only the shared"
                    " per-message path in exchange/base.py posts messages",
                ))
    return out


def lint_file(path: Path) -> List[Violation]:
    tree = ast.parse(path.read_text(), filename=str(path))
    rel = path.relative_to(SRC).as_posix()
    out: List[Violation] = []
    if rel.split("/", 1)[0] in TYPED_ERROR_PACKAGES:
        out += check_bare_raises(path, tree)
    out += check_fabric_chokepoint(path, tree)
    out += check_single_schedule(path, tree)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--list", action="store_true",
                    help="print the checked file set and exit")
    args = ap.parse_args(argv)
    files = sorted(SRC.rglob("*.py"))
    if args.list:
        for f in files:
            print(f.relative_to(REPO))
        return 0
    violations: List[Violation] = []
    for f in files:
        violations += lint_file(f)
    for path, line, msg in violations:
        print(f"{path.relative_to(REPO)}:{line}: {msg}")
    if violations:
        print(f"{len(violations)} invariant violation(s)")
        return 1
    print(f"lint_invariants: {len(files)} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
