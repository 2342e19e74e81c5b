"""CLI for incremental sessions: ``python -m repro.sessions``.

Subcommands::

    run <sessions.json> [--checkpoint-dir DIR] [--report FILE]
                        [--verify-full]

``run`` opens each session, streams its batches, and prints one row
per batch (recompute mode, dirty fraction, modeled cost vs. the latest
full-recompute reference).  With ``--verify-full`` every batch is also
checked against a cold full recompute on the equivalently mutated
input — the differential guarantee, enforced end to end.  With
``--checkpoint-dir`` a session saves a versioned checkpoint every
``checkpoint_every`` batches and after its last batch (none at 0),
keeping the newest three versions; a rerun resumes past the saved
batches.

The input file holds ``{"sessions": [<session spec>, ...]}``, a bare
list, or a single spec object (see
:class:`repro.sessions.spec.SessionSpec`; ``examples/session_stream.json``
is a worked example).  Exit codes: 0 all sessions streamed (and
verified, when asked), 1 a batch failed or a differential mismatched,
2 usage error or unreadable input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..serve.checkpoint import CheckpointStore
from .session import Session
from .spec import SessionSpec


def _load_specs(path: str) -> list[SessionSpec]:
    doc = json.loads(Path(path).read_text())
    if isinstance(doc, dict) and "sessions" in doc:
        doc = doc["sessions"]
    if isinstance(doc, dict):
        doc = [doc]
    if not isinstance(doc, list):
        raise ValueError(f"top level is {type(doc).__name__}, expected "
                         "an object or a list of session specs")
    for d in doc:
        if not isinstance(d, dict):
            raise ValueError(f"session spec is {type(d).__name__}, "
                             "expected an object")
    return [SessionSpec.from_dict(d) for d in doc]


def _fmt_cost(seconds: float) -> str:
    return f"{1e3 * seconds:9.3f}ms"


def _run_session(spec: SessionSpec, *, store, verify_full: bool) -> bool:
    session = Session.open(spec, store=store)
    resumed = session.applied_batches
    print(f"session {spec.name} [{spec.algorithm}] seed={spec.seed}: "
          f"{len(spec.batches)} batches"
          + (f" (resumed past {resumed})" if resumed else ""))
    print(f"  {'batch':>5s}  {'mode':6s} {'dirty':>7s} {'frac':>6s} "
          f"{'cost':>11s} {'full':>11s} {'ratio':>6s}  digest")
    ok = True
    for i, ops in enumerate(spec.batches, start=1):
        if session.recorded(i) is not None:
            continue
        r = session.apply_batch(ops)
        print(f"  {r.batch:5d}  {r.mode:6s} {r.dirty:7d} "
              f"{r.dirty_fraction:6.3f} {_fmt_cost(r.cost_s)} "
              f"{_fmt_cost(r.full_cost_s)} {r.cost_ratio:6.3f}  "
              f"{r.digest[:12]}")
        if verify_full:
            matches, cold = session.verify_full()
            if not matches:
                ok = False
                print(f"         DIFFERENTIAL MISMATCH: cold recompute "
                      f"digest {cold[:12]} != session {r.digest[:12]}")
        if store is not None and (session.checkpoint_due or (
                spec.checkpoint_every > 0 and i == len(spec.batches))):
            session.save(store)
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sessions",
        description="Stream mutation batches through incremental "
                    "morph sessions.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="run session streams from a JSON file")
    run.add_argument("file", help="sessions JSON "
                                  "({'sessions': [...]}, list, or object)")
    run.add_argument("--checkpoint-dir", default=None,
                     help="save every checkpoint_every batches and at the end")
    run.add_argument("--verify-full", action="store_true",
                     help="after every batch, compare against a cold "
                          "full recompute (the differential gate)")
    run.add_argument("--report", default=None,
                     help="write a machine-readable JSON report")
    args = parser.parse_args(argv)

    try:
        specs = _load_specs(args.file)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot load {args.file}: {exc}", file=sys.stderr)
        return 2

    store = (CheckpointStore(args.checkpoint_dir)
             if args.checkpoint_dir else None)
    ok = True
    report = []
    for spec in specs:
        try:
            good = _run_session(spec, store=store,
                                verify_full=args.verify_full)
        except Exception as exc:   # noqa: BLE001 - CLI boundary
            print(f"session {spec.name} FAILED: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            ok = False
            continue
        ok = ok and good
        report.append({"name": spec.name, "algorithm": spec.algorithm,
                       "ok": good})
    if args.report:
        Path(args.report).write_text(json.dumps(
            {"ok": ok, "sessions": report}, indent=2, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
