"""CLI for the scenario corpus: ``python -m repro.scenarios``.

Subcommands::

    record <name> <jobs.json> [-o DIR]   record a batch file as a scenario
    record-corpus [DIR]                  re-record the built-in corpus
    replay <paths...>                    replay, print per-job diffs
    verify <paths...> [--update-golden]  replay + gate (CI entry point)

``replay`` and ``verify`` are the same engine; ``verify`` is the CI
spelling (quiet on success, ``--report FILE`` for the machine-readable
summary).  Exit codes: 0 all goldens reproduced, 1 mismatch or failed
scenario, 2 usage error or corrupt/missing scenario file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..serve.jobs import JobSpec
from .corpus import DEFAULT_CORPUS_DIR, record_corpus
from .format import load_scenario, save_scenario
from .record import record_scenario
from .replay import verify_paths


def _load_specs(path: str) -> list[JobSpec]:
    doc = json.loads(Path(path).read_text())
    jobs = doc["jobs"] if isinstance(doc, dict) else doc
    return [JobSpec.from_dict(j) for j in jobs]


def _print_corpus(corpus, *, verbose: bool) -> None:
    for path, message in corpus.errors:
        print(f"ERROR  {path}: {message}")
    for report in corpus.reports:
        mark = "ok" if report.ok else "FAIL"
        if report.updated:
            mark = "updated"
        line = (f"{mark:8s} {report.scenario:24s} "
                f"{len(report.jobs)} jobs  {report.wall_s:.2f}s")
        if report.ok and not verbose and not report.updated:
            print(line)
            continue
        print(line)
        for job in report.jobs:
            if job.ok and not verbose:
                continue
            status = "ok" if job.ok else "MISMATCH"
            print(f"    {status:8s} {job.name} [{job.algorithm}]")
            for m in job.mismatches:
                print(f"        {m}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="record/replay scenario corpus for the serving stack")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rec = sub.add_parser("record", help="record a jobs file as a scenario")
    p_rec.add_argument("name", help="scenario name (also the file stem)")
    p_rec.add_argument("jobs", help="serve batch file (see examples/)")
    p_rec.add_argument("-o", "--outdir", default=".",
                       help="directory for <name>.json (default: .)")
    p_rec.add_argument("--description", default="")
    p_rec.add_argument("--policy", default="fifo")

    p_corpus = sub.add_parser(
        "record-corpus", help="re-record the built-in corpus definitions")
    p_corpus.add_argument("outdir", nargs="?",
                          default=str(DEFAULT_CORPUS_DIR))

    for cmd in ("replay", "verify"):
        p = sub.add_parser(cmd, help=f"{cmd} recorded scenarios")
        p.add_argument("paths", nargs="+",
                       help="scenario files or directories of them")
        p.add_argument("--update-golden", action="store_true",
                       help="accept replayed outcomes as the new goldens")
        p.add_argument("--report", default=None,
                       help="write the machine-readable report JSON here")
        p.add_argument("-v", "--verbose", action="store_true",
                       help="print per-job lines even on success")

    args = parser.parse_args(argv)

    if args.command == "record":
        try:
            specs = _load_specs(args.jobs)
        except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
            print(f"error: cannot read jobs file {args.jobs}: {exc}",
                  file=sys.stderr)
            return 2
        scenario = record_scenario(args.name, specs,
                                   description=args.description,
                                   policy=args.policy)
        path = save_scenario(Path(args.outdir) / f"{args.name}.json",
                             scenario)
        print(f"recorded {len(specs)} jobs -> {path}")
        return 0

    if args.command == "record-corpus":
        paths = record_corpus(args.outdir)
        for path in paths:
            scenario = load_scenario(path)
            print(f"recorded {scenario.name:24s} "
                  f"{len(scenario.specs)} jobs -> {path}")
        return 0

    # replay / verify
    corpus = verify_paths(args.paths, update=args.update_golden)
    _print_corpus(corpus, verbose=args.verbose)
    if args.report:
        Path(args.report).write_text(
            json.dumps(corpus.to_dict(), indent=2, sort_keys=True) + "\n")
    total = len(corpus.reports)
    bad = [r for r in corpus.reports if not r.ok and not r.updated]
    print(f"{total - len(bad)}/{total} scenarios reproduced"
          + (f", {len(corpus.errors)} unreadable" if corpus.errors else ""))
    if corpus.errors:
        return 2
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
