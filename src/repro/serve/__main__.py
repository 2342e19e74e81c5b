"""CLI: run a JSON job file through the scheduler.

Usage::

    python -m repro.serve JOBS.json [--policy fifo|sjf]
                          [--checkpoint-dir DIR] [--tune-cache PATH]
                          [--out RESULTS.json]

The job file is either a JSON list of job-spec dicts or an object with
a ``"jobs"`` list (see ``examples/serve_jobs.json``).  Jobs run inline,
one after another.  Exit status is 1 when any job ends ``failed``
after exhausting its retries.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .jobs import JobSpec
from .scheduler import POLICIES, Scheduler


def load_jobs(path: str | Path) -> list[JobSpec]:
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict):
        data = data["jobs"]
    return [JobSpec.from_dict(d) for d in data]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Run a batch of morph jobs through the scheduler.")
    ap.add_argument("jobfile", help="JSON job file (list or {'jobs': [...]})")
    ap.add_argument("--policy", choices=POLICIES, default="fifo")
    ap.add_argument("--checkpoint-dir", default=None,
                    help="spool directory for round-state checkpoints")
    ap.add_argument("--tune-cache", default=None,
                    help="repro.tune cache whose measured costs refine "
                         "the SJF proxy (and back strategy='auto' jobs)")
    ap.add_argument("--out", default=None,
                    help="write the batch report as JSON to this path")
    args = ap.parse_args(argv)

    specs = load_jobs(args.jobfile)
    if args.tune_cache:
        # Adapters resolve strategy="auto" through the ambient cache path.
        os.environ["REPRO_TUNE_CACHE"] = args.tune_cache
    sched = Scheduler(policy=args.policy, checkpoint_dir=args.checkpoint_dir,
                      tune_cache=args.tune_cache)
    report = sched.run_batch(specs)

    print(report.table())
    print(f"\n{len(report.records)} jobs, policy={report.policy}, "
          f"wall {report.wall_s:.3f}s, "
          f"mean queue wait {report.mean_queue_wait_s():.3f}s")
    for rec in report.failed:
        for msg in rec.failures:
            print(f"FAILED {rec.spec.name}: {msg}", file=sys.stderr)

    if args.out:
        Path(args.out).write_text(json.dumps(report.to_dict(), indent=2))
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
