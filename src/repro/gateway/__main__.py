"""CLI for the gateway: ``serve`` a config, or run the CI ``smoke``.

``python -m repro.gateway serve examples/gateway_tenants.json`` starts
the warm pool and the HTTP front end and blocks until interrupted;
``--journal-dir``/``--checkpoint-dir`` override the config's durable
locations (a journal is what makes ``serve`` restartable).

``python -m repro.gateway smoke examples/gateway_tenants.json`` is the
end-to-end gate CI runs: it starts a gateway plus HTTP server
in-process, drives the config's smoke plan over a *real* socket
(``http.client``, not direct method calls), kills a warm worker
mid-session on cue, and asserts

* every job digest equals an inline :func:`repro.serve.pool.run_job`
  replay of the same spec,
* every session-batch digest equals an inline
  :class:`repro.sessions.Session` replay of the same stream — including
  the batches served by the crashed worker's replacement,
* the kill actually happened (``worker_replaced`` fired) and the
  gateway drained cleanly afterwards.

``smoke --crash-restart`` escalates from killing a *worker* to killing
the *gateway process itself*: it launches ``serve`` as a subprocess
with a journal, drives a mixed load (fire-and-forget idempotent jobs +
an open session stream, with disk faults injected into the journal and
the checkpoint spool), SIGKILLs the server mid-load, vandalizes the
journal tail and the newest session checkpoint the way a real crash
would, restarts, and asserts zero lost and zero duplicated jobs: every
admitted job completes exactly once with a digest byte-identical to the
inline replay, repeated ``Idempotency-Key`` POSTs are answered from the
recorded results, and the session stream continues without a gap.

Exit status 0 on success, 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from ..serve.jobs import JobSpec
from ..serve.pool import run_job
from ..sessions import Session, SessionSpec
from .gateway import Gateway, GatewayConfig
from .http import make_server, serve_in_thread
from .journal import JOURNAL_FILE, read_journal


def _load_config(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _request(conn: http.client.HTTPConnection, method: str, path: str,
             body: dict | None = None, headers: dict | None = None
             ) -> tuple[int, dict]:
    payload = json.dumps(body).encode() if body is not None else None
    conn.request(method, path, body=payload,
                 headers={"Content-Type": "application/json",
                          **(headers or {})})
    resp = conn.getresponse()
    return resp.status, json.loads(resp.read() or b"{}")


# ------------------------------------------------------------------ #
# serve                                                               #
# ------------------------------------------------------------------ #

def cmd_serve(args) -> int:
    config = _load_config(args.config)
    gcfg = dict(config.get("gateway", {}))
    if args.journal_dir is not None:
        gcfg["journal_dir"] = args.journal_dir
    if args.checkpoint_dir is not None:
        gcfg["checkpoint_dir"] = args.checkpoint_dir
    gateway = Gateway(GatewayConfig.from_dict(gcfg))
    with gateway:
        server = make_server(gateway, host=args.host, port=args.port,
                             verbose=True)
        host, port = server.server_address[:2]
        print(f"repro-gateway listening on http://{host}:{port} "
              f"({gateway.pool.size} warm workers)")
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("draining ...")
            server.shutdown()
            gateway.drain()
    return 0


# ------------------------------------------------------------------ #
# smoke                                                               #
# ------------------------------------------------------------------ #

def _check(ok: bool, what: str, failures: list) -> None:
    print(f"  {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def cmd_smoke(args) -> int:
    config = _load_config(args.config)
    if getattr(args, "crash_restart", False):
        return _smoke_crash_restart(config, args)
    smoke = config.get("smoke", {})
    failures: list = []

    with tempfile.TemporaryDirectory(prefix="gateway-smoke-") as spool:
        gcfg = dict(config.get("gateway", {}))
        gcfg.setdefault("checkpoint_dir", spool + "/gateway")
        gateway = Gateway(GatewayConfig.from_dict(gcfg))
        with gateway:
            server = make_server(gateway)
            serve_in_thread(server)
            host, port = server.server_address[:2]
            conn = http.client.HTTPConnection(host, port, timeout=600)
            print(f"smoke: gateway up at http://{host}:{port}")

            status, health = _request(conn, "GET", "/healthz")
            _check(status == 200 and health.get("ok"),
                   f"healthz {health}", failures)

            # -- mixed job batch, grouped per tenant ----------------- #
            by_tenant: dict[str, list] = {}
            for entry in smoke.get("jobs", ()):
                by_tenant.setdefault(entry["tenant"], []).append(
                    entry["job"])
            for tenant, jobs in by_tenant.items():
                status, reply = _request(
                    conn, "POST", "/v1/batch?wait=1",
                    {"tenant": tenant, "jobs": jobs})
                _check(status == 200,
                       f"batch {tenant}: HTTP {status}", failures)
                for job, out in zip(jobs, reply.get("jobs", ())):
                    inline = run_job(JobSpec.from_dict(job),
                                     spool + f"/inline/{tenant}")
                    want = (inline.result.digest
                            if inline.result is not None else None)
                    _check(out.get("status") == (
                               "ok" if inline.ok else "failed"),
                           f"job {tenant}/{job['name']} status "
                           f"{out.get('status')}", failures)
                    _check(out.get("digest") == want,
                           f"job {tenant}/{job['name']} digest "
                           f"{out.get('digest')} == inline {want}",
                           failures)

            # -- session stream with a mid-stream worker kill -------- #
            plan = smoke.get("session")
            if plan:
                tenant = plan["tenant"]
                spec = SessionSpec.from_dict(plan["spec"])
                kill_after = int(plan.get("kill_after_batch", 0))
                inline_session = Session.open(spec)
                for i, ops in enumerate(plan["batches"], start=1):
                    status, out = _request(
                        conn, "POST", "/v1/sessions/batch",
                        {"tenant": tenant, "session": plan["spec"],
                         "ops": ops})
                    want = inline_session.apply_batch(ops).digest
                    _check(status == 200 and out.get("status") == "ok",
                           f"session batch {i}: HTTP {status} "
                           f"{out.get('status')}", failures)
                    _check(out.get("digest") == want,
                           f"session batch {i} digest "
                           f"{out.get('digest')} == inline {want}",
                           failures)
                    if i == kill_after:
                        gateway.kill_worker(out["slot"])
                        print(f"  chaos: killed worker slot "
                              f"{out['slot']} after batch {i}")
                if kill_after:
                    _check(gateway.bus.count("worker_replaced") >= 1,
                           "killed worker was replaced", failures)
                    _check(gateway.bus.count("checkpointed") >= 1,
                           "session batches were checkpointed", failures)
                status, out = _request(
                    conn, "POST", "/v1/sessions/close",
                    {"tenant": tenant, "session": spec.name})
                _check(status == 200 and out.get("ok"),
                       "session close", failures)

            status, stats = _request(conn, "GET", "/stats")
            _check(status == 200 and
                   stats["admission"]["total_pending"] == 0,
                   "ledger settled (no pending reservations)", failures)
            conn.close()
            server.shutdown()
            gateway.drain()
            _check(gateway.bus.count("drained") == 1,
                   "gateway drained cleanly", failures)

    if failures:
        print(f"smoke: {len(failures)} failure(s)")
        return 1
    print("smoke: all checks passed")
    return 0


# ------------------------------------------------------------------ #
# smoke --crash-restart                                               #
# ------------------------------------------------------------------ #

def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _spawn_serve(config_path: Path, port: int) -> subprocess.Popen:
    """``serve`` as its own process group (so SIGKILLing it takes its
    daemonic warm workers down too, like a real machine going away)."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro.gateway", "serve",
         str(config_path), "--port", str(port)],
        start_new_session=True)


def _killpg(proc: subprocess.Popen, sig: int) -> None:
    try:
        os.killpg(os.getpgid(proc.pid), sig)
    except (ProcessLookupError, PermissionError):
        pass


def _wait_healthy(port: int, timeout: float = 240.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            conn = http.client.HTTPConnection("127.0.0.1", port,
                                              timeout=10)
            status, health = _request(conn, "GET", "/healthz")
            conn.close()
            if status == 200 and health.get("ok"):
                return True
        except OSError:
            pass
        time.sleep(0.25)
    return False


def _post_retry(port: int, path: str, body: dict, *, key: str,
                retries: int = 5, retried: list | None = None
                ) -> tuple[int, dict]:
    """POST with an ``Idempotency-Key`` and retry on 429/503/504 — the
    key is exactly what makes the blind retry safe (an injected journal
    fault surfaces as one retryable 503).  Each retried status is
    appended to ``retried``."""
    last: tuple[int, dict] = (0, {})
    for attempt in range(retries):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=600)
        try:
            last = _request(conn, "POST", path, body,
                            headers={"Idempotency-Key": key})
        finally:
            conn.close()
        if last[0] not in (429, 503, 504):
            return last
        if retried is not None:
            retried.append(last[0])
        time.sleep(0.2 * (attempt + 1))
    return last


def _smoke_crash_restart(config: dict, args) -> int:
    smoke = config.get("smoke", {})
    crash = smoke.get("crash_restart", {})
    failures: list = []

    if args.keep_dir:
        root = Path(args.keep_dir)
        root.mkdir(parents=True, exist_ok=True)
        cleanup = None
    else:
        cleanup = tempfile.TemporaryDirectory(prefix="gateway-crash-")
        root = Path(cleanup.name)
    journal_dir = root / "journal"
    spool_dir = root / "spool"
    port = _free_port()

    gcfg = dict(config.get("gateway", {}))
    gcfg["journal_dir"] = str(journal_dir)
    gcfg["checkpoint_dir"] = str(spool_dir)
    # Disk weather on the journal for the first (to-be-killed) server
    # only: an injected append fault must surface as one retryable 503,
    # never as corruption.
    faulty = {**gcfg, "journal_fault": crash.get("journal_fault")}
    cfg_faulty = root / "serve-faulty.json"
    cfg_clean = root / "serve-clean.json"
    cfg_faulty.write_text(json.dumps({"gateway": faulty}, indent=1))
    cfg_clean.write_text(json.dumps({"gateway": gcfg}, indent=1))

    jobs = [(entry["tenant"], entry["job"], f"crash-job-{i}")
            for i, entry in enumerate(smoke.get("jobs", ()))]
    plan = smoke.get("session") or {}
    batches = plan.get("batches", [])
    kill_after = min(int(crash.get("kill_after_batch", 2)), len(batches))

    proc = _spawn_serve(cfg_faulty, port)
    retried: list = []
    try:
        _check(_wait_healthy(port), "first server healthy", failures)

        # Mixed load: an open session stream first (so there is warm
        # sticky state to lose), then fire-and-forget idempotent jobs.
        for i in range(kill_after):
            status, out = _post_retry(
                port, "/v1/sessions/batch",
                {"tenant": plan["tenant"], "session": plan["spec"],
                 "ops": batches[i]}, key=f"crash-sess-{i}",
                retried=retried)
            _check(status == 200 and out.get("status") == "ok",
                   f"pre-crash session batch {i + 1}: HTTP {status}",
                   failures)
        for tenant, job, key in jobs:
            status, out = _post_retry(
                port, "/v1/jobs?wait=0", {"tenant": tenant, "job": job},
                key=key, retried=retried)
            _check(status in (200, 202),
                   f"pre-crash submit {job['name']}: HTTP {status}",
                   failures)
        if crash.get("journal_fault"):
            _check(retried.count(503) >= 1,
                   f"an injected journal fault surfaced as a retryable "
                   f"503 ({retried.count(503)} retried)", failures)

        # The crash: SIGKILL the whole server process group mid-load.
        _killpg(proc, signal.SIGKILL)
        proc.wait(timeout=30)
        print(f"  chaos: SIGKILL'd gateway pid {proc.pid} mid-load")
    finally:
        _killpg(proc, signal.SIGKILL)

    # What a real crash leaves behind: a torn journal tail and a torn
    # newest checkpoint version.
    wal = journal_dir / JOURNAL_FILE
    with open(wal, "ab") as fh:
        fh.write(b'deadbeef {"t":"torn mid-append')
    ckpts = sorted(spool_dir.glob("*.ckpt"),
                   key=lambda p: p.name)
    if ckpts:
        with open(ckpts[-1], "r+b") as fh:
            fh.truncate(17)
        print(f"  chaos: tore journal tail and checkpoint "
              f"{ckpts[-1].name}")

    proc = _spawn_serve(cfg_clean, port)
    try:
        _check(_wait_healthy(port), "restarted server healthy (journal "
               "replayed, backlog requeued)", failures)

        # Every job: the idempotent re-POST must come back ok with the
        # inline digest — completed-before-crash jobs answer from the
        # recorded result, requeued ones resolve their recovered handle.
        for tenant, job, key in jobs:
            status, out = _post_retry(
                port, "/v1/jobs?wait=1", {"tenant": tenant, "job": job},
                key=key)
            inline = run_job(JobSpec.from_dict(job),
                             str(root / "inline" / tenant))
            want = (inline.result.digest
                    if inline.result is not None else None)
            want_status = "ok" if inline.ok else "failed"
            _check(status == 200 and out.get("status") == want_status,
                   f"job {job['name']} after restart: HTTP {status} "
                   f"{out.get('status')}", failures)
            _check(out.get("digest") == want,
                   f"job {job['name']} digest identical after restart",
                   failures)

        # The session stream continues exactly where the client left it.
        inline_session = Session.open(SessionSpec.from_dict(plan["spec"]))
        want_digests = [inline_session.apply_batch(ops).digest
                        for ops in batches]
        for i in range(kill_after, len(batches)):
            status, out = _post_retry(
                port, "/v1/sessions/batch",
                {"tenant": plan["tenant"], "session": plan["spec"],
                 "ops": batches[i]}, key=f"crash-sess-{i}")
            _check(status == 200 and
                   out.get("digest") == want_digests[i],
                   f"post-crash session batch {i + 1} digest", failures)

        # A repeated pre-crash batch answers from the record — same
        # digest, no stream index consumed, marked idempotent.
        status, out = _post_retry(
            port, "/v1/sessions/batch",
            {"tenant": plan["tenant"], "session": plan["spec"],
             "ops": batches[0]}, key="crash-sess-0")
        _check(status == 200 and out.get("digest") == want_digests[0],
               "repeated Idempotency-Key answered from record", failures)

        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        _request(conn, "POST", "/v1/sessions/close",
                 {"tenant": plan["tenant"],
                  "session": plan["spec"]["name"]})
        status, stats = _request(conn, "GET", "/stats")
        conn.close()
        _check(status == 200 and
               stats["admission"]["total_pending"] == 0,
               "ledger settled after recovery", failures)

        _killpg(proc, signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            _killpg(proc, signal.SIGKILL)
            proc.wait(timeout=30)
    finally:
        _killpg(proc, signal.SIGKILL)

    # The ground truth: fold the journal and prove exactly-once.
    replay = read_journal(wal)
    admits = {}
    dones: dict[str, list] = {}
    for rec in replay.records:
        if rec.get("t") == "admit":
            admits[rec["job_id"]] = rec
        elif rec.get("t") == "done":
            dones.setdefault(rec["job_id"], []).append(rec)
    job_admits = [j for j, r in admits.items() if r["kind"] == "job"]
    lost = [j for j in admits if not dones.get(j)]
    _check(not lost, f"zero lost submissions (journal: {len(lost)} "
           f"admits without a done)", failures)
    duplicated = [j for j in job_admits if len(dones[j]) != 1]
    _check(not duplicated,
           f"zero duplicated jobs (journal: {duplicated or 'none'} "
           f"with != 1 done record)", failures)
    _check(len(job_admits) == len(jobs),
           f"every job admitted exactly once ({len(job_admits)} admits "
           f"for {len(jobs)} jobs)", failures)

    if cleanup is not None:
        cleanup.cleanup()
    if failures:
        print(f"crash-restart smoke: {len(failures)} failure(s)")
        return 1
    print("crash-restart smoke: all checks passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.gateway",
        description="Sharded multi-tenant gateway over warm workers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_serve = sub.add_parser("serve", help="run the HTTP front end")
    p_serve.add_argument("config", help="gateway config JSON")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8777)
    p_serve.add_argument("--journal-dir", default=None,
                         help="write-ahead journal directory (overrides "
                              "the config; enables crash-restart "
                              "recovery)")
    p_serve.add_argument("--checkpoint-dir", default=None,
                         help="session checkpoint spool (overrides the "
                              "config)")
    p_serve.set_defaults(fn=cmd_serve)

    p_smoke = sub.add_parser(
        "smoke", help="end-to-end smoke: HTTP drive + digest identity "
                      "+ chaos kill + clean drain")
    p_smoke.add_argument("config", help="gateway config JSON with a "
                                        "'smoke' plan")
    p_smoke.add_argument("--crash-restart", action="store_true",
                         help="SIGKILL the gateway subprocess mid-load, "
                              "restart it, and assert exactly-once "
                              "completion from the journal")
    p_smoke.add_argument("--keep-dir", default=None,
                         help="run the crash-restart smoke in this "
                              "directory and keep it (journal + spools "
                              "become CI artifacts)")
    p_smoke.set_defaults(fn=cmd_smoke)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
