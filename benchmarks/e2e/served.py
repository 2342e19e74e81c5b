"""Gateway workloads: jobs and session streams over HTTP.

The program under test is a ``python -m repro.gateway serve``
subprocess (2 warm workers, journal on).  This process is its only
client: at most two threads, each holding one keep-alive connection.
The server is watched only from outside, through its responses,
``GET /healthz``, ``GET /stats`` and ``/proc``.  A traced pass launches
``python -m benchmarks.e2e.traced_server`` instead, which records spans
in the server and its workers; the request bytes are the same.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

from . import HERE, ROOT, SRC
from .common import (Pass, Timed, by_kind, end_to_end, span_p50,
                     template_split, window_of)
from .host import Prober
from .probes import OP_HEADER
from .spans import ROOT_LAYER, Span, load_dump
from .stats import INF, Metric, p50, p95_or_none, percentile

TENANTS = ("t0", "t1")

#: quota per tenant; two client connections never reach it
QUOTA = {"max_inflight": 64, "max_queued": 64}

#: the tiny job mix of ``benchmarks/bench_gateway.py`` (1-14 ms of
#: driver work each), so HTTP, admission, the journal, IPC and the
#: collector dominate
JOB_TEMPLATES = (
    ("sp", {"num_vars": 30, "k": 3, "ratio": 3.0}),
    ("pta", {"num_vars": 40, "num_constraints": 80}),
    ("engine", {"num_nodes": 60, "num_edges": 180}),
    ("mst", {"num_nodes": 48, "num_edges": 144}),
)

#: open-loop arrival rate: about a fifth of the ~100/s two connections
#: reach on these jobs, so queueing shows but a slower host does not
#: tip the open loop into saturation
ARRIVALS_PER_S = 20.0
#: share of the window given to the open-loop phase (the rest is the
#: closed-loop saturation phase); 12 s of a 16 s window gives the open
#: loop 240 arrivals, over the 200 a p95 needs
OPEN_SHARE = 0.75
#: validity guard of the open loop
MAX_RATE_MISS = 0.02
MAX_LATE_S = 1.0
#: share of open-loop ops that may be sent more than MAX_LATE_S late
#: while waiting for a free connection
MAX_HELD_SHARE = 0.05

#: where the run's servers keep their journals, spools and logs
WORK_DIR = HERE / ".work"
#: how long a spawned server may take to answer ``/healthz``
START_TIMEOUT_S = 120.0

JOBS_PATH = "/v1/jobs?wait=1"
BATCH_PATH = "/v1/sessions/batch"


class LoadgenInvalid(RuntimeError):
    """The open loop did not offer the load it was asked to."""


@dataclass(frozen=True)
class StreamPlan:
    """One client's session stream."""

    name: str
    tenant: str
    algorithm: str
    params: dict
    #: ``(op, count)`` of batch k is ``rotation[(k - 1) % len]``
    rotation: tuple
    #: op id of batch k is ``op_base + k``
    op_base: int


SESSIONS = (
    StreamPlan("mst-stream", "t0", "mst",
               {"num_nodes": 20000, "num_edges": 80000},
               (("add_edges", 40), ("reweight_edges", 40),
                ("drop_edges", 20)), 1_000_000),
    # The drop every fifth batch forces PTA's full fallback.
    StreamPlan("pta-stream", "t1", "pta",
               {"num_vars": 400, "num_constraints": 1600},
               (("add_constraints", 8),) * 4 + (("drop_constraints", 2),),
               2_000_000),
)
#: batches per stream, the cold-opening first one included.  The
#: window, not this cap, ends a stream: a stream that stopped early
#: would shift the two streams' shares of the pooled latencies.
MAX_BATCHES = 1000
#: batches whose digest is checked against a cold run (and the last)
CHECK_BATCHES = (50, 100, 150)


# ------------------------------------------------------------------ #
# Op ids: how a span in the server or a worker finds its op           #
# ------------------------------------------------------------------ #

def job_name(op: int, algorithm: str) -> str:
    return f"op{op}-{algorithm}"


def job_op(name: str) -> int:
    """The op id in a :func:`job_name` (-1 for any other name)."""
    head = name.split("-", 1)[0]
    return int(head[2:]) if head[:2] == "op" and head[2:].isdigit() else -1


def session_op(name: str, batch) -> int:
    for plan in SESSIONS:
        if plan.name == name and batch is not None:
            return plan.op_base + int(batch)
    return -1


def record_op(rec: dict) -> int | None:
    """The op a journal record written outside a request thread
    belongs to (``done``/``checkpoint`` records of the collector)."""
    if rec.get("t") == "checkpoint":
        return session_op(rec.get("name"), rec.get("applied"))
    if rec.get("t") == "done":
        result = rec.get("result") or {}
        if result.get("kind") == "session_batch":
            return session_op(result.get("name"),
                              (result.get("batch") or {}).get("batch"))
        return job_op(result.get("name", ""))
    return None


def handle_fact(op: int, handle) -> dict:
    """The public timestamps of one resolved gateway ``JobHandle``."""
    record = handle.record
    return {"op": op, "submitted_ns": round(handle.submitted_at * 1e9),
            "done_ns": (round(handle.done_at * 1e9)
                        if handle.done_at is not None else None),
            "queue_wait_s": record.queue_wait_s if record else None,
            "service_s": record.service_s if record else None}


# ------------------------------------------------------------------ #
# The server subprocess                                               #
# ------------------------------------------------------------------ #

def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _children(pid: int) -> list[int]:
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == pid:
            out.append(int(entry))
    return out


def _vm_hwm_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


class Server:
    """One gateway ``serve`` process with its own journal and spool.

    Readiness is a ``/healthz`` poll, never ``serve``'s stdout, which
    is block-buffered under a pipe; stdout and stderr (a line per
    request) go to a log file, so nothing blocks on a full pipe.
    """

    def __init__(self, workdir: Path, tag: str, *,
                 spans_dir: Path | None = None) -> None:
        self.dir = workdir / tag
        self.dir.mkdir(parents=True)
        config = {"gateway": {
            "workers": 2, "max_total_pending": 256,
            "journal_dir": str(self.dir / "journal"),
            "checkpoint_dir": str(self.dir / "spool"),
            "tenants": {t: dict(QUOTA) for t in TENANTS}}}
        cfg = self.dir / "config.json"
        cfg.write_text(json.dumps(config))
        self.port = _free_port()
        if spans_dir is None:
            self.cmd = [sys.executable, "-m", "repro.gateway", "serve",
                        str(cfg), "--port", str(self.port)]
        else:
            self.cmd = [sys.executable, "-m", "benchmarks.e2e.traced_server",
                        str(cfg), "--port", str(self.port),
                        "--spans", str(spans_dir)]
        self.proc: subprocess.Popen | None = None

    def start(self) -> float:
        """Spawn; returns seconds until ``/healthz`` answered ok."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), str(ROOT)] + ([env["PYTHONPATH"]]
                                     if env.get("PYTHONPATH") else []))
        with open(self.dir / "server.log", "wb") as log:
            t0 = perf_counter()
            self.proc = subprocess.Popen(self.cmd, cwd=ROOT, env=env,
                                         stdout=log, stderr=log,
                                         stdin=subprocess.DEVNULL,
                                         start_new_session=True)
        deadline = t0 + START_TIMEOUT_S
        while perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"gateway exited with {self.proc.returncode}"
                                   f": {self.log_tail()}")
            try:
                status, body = Conn(self.port, timeout=5).call_once(
                    "GET", "/healthz")
                if status == 200 and body.get("ok"):
                    return perf_counter() - t0
            except OSError:
                pass
            time.sleep(0.005)
        raise TimeoutError(f"gateway not healthy after {START_TIMEOUT_S}s: "
                           f"{self.log_tail()}")

    def log_tail(self) -> str:
        """The server log's last 20 lines."""
        try:
            text = (self.dir / "server.log").read_text(errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-20:])

    def get(self, path: str) -> dict:
        status, body = Conn(self.port, timeout=30).call_once("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path}: HTTP {status}")
        return body

    def peak_rss_mb(self) -> Metric:
        """Summed ``VmHWM`` of the server and its worker processes."""
        pids = [self.proc.pid] + _children(self.proc.pid)
        return Metric(sum(_vm_hwm_kb(p) for p in pids) / 1024, "MB",
                      len(pids))

    def stop(self, *, graceful: bool = True) -> None:
        """SIGINT (``serve`` drains its workers and exits), then
        SIGKILL whatever of the process group is left, and wait for all
        of it to be gone."""
        proc = self.proc
        if proc is None:
            return
        if graceful and proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(timeout=30)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)
        self.proc = None


class Conn:
    """One keep-alive client connection.

    Once a request is sent, the socket is put in quick-ACK mode, so the
    client acknowledges each segment of the response as it reads it.
    Left alone, the kernel moves in and out of delayed-ACK ("pingpong")
    mode with the gaps between requests, and the server, which writes a
    response's headers and body separately with Nagle on, would hold the
    body for a 40 ms delayed-ACK timer on some requests and not others.
    The mode has to be set after the send: sending soon after the last
    response put the socket back in delayed-ACK mode.
    """

    def __init__(self, port: int, *, timeout: float = 120.0) -> None:
        self.port = port
        self.timeout = timeout
        self._http: http.client.HTTPConnection | None = None
        #: perf_counter_ns the last response was read (or creation)
        self.free = perf_counter_ns()

    def call(self, method: str, path: str, body=None, *, op: int = -1
             ) -> tuple[int, dict]:
        payload = json.dumps(body).encode() if body is not None else None
        try:
            if self._http is None:
                self._http = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=self.timeout)
            self._http.request(method, path, body=payload, headers={
                "Content-Type": "application/json", OP_HEADER: str(op)})
            self._http.sock.setsockopt(socket.IPPROTO_TCP,
                                       socket.TCP_QUICKACK, 1)
            resp = self._http.getresponse()
            return resp.status, json.loads(resp.read() or b"{}")
        except (OSError, http.client.HTTPException, ValueError):
            self.close()
            raise
        finally:
            self.free = perf_counter_ns()

    def call_once(self, method: str, path: str, body=None):
        try:
            return self.call(method, path, body)
        finally:
            self.close()

    def close(self) -> None:
        if self._http is not None:
            self._http.close()
            self._http = None


# ------------------------------------------------------------------ #
# Load generation                                                     #
# ------------------------------------------------------------------ #

@dataclass
class Sample:
    """One request as the client saw it."""

    op: int
    due: int            # perf_counter_ns the op was due (= send if closed)
    send: int
    done: int
    status: int = 0
    body: dict | None = None
    error: str | None = None
    #: when the client could first have sent it: the later of the due
    #: time and its connection coming free
    ready: int = 0

    @property
    def latency_s(self) -> float:
        return (self.done - self.due) / 1e9

    @property
    def exchange_s(self) -> float:
        return (self.done - self.send) / 1e9


def send(conn: Conn, path: str, body: dict, op: int, due: int | None,
         recorder=None) -> Sample:
    t_send = perf_counter_ns()
    ready = t_send if due is None else max(due, conn.free)
    try:
        status, reply = conn.call("POST", path, body, op=op)
        error = None
    except (OSError, http.client.HTTPException, ValueError) as exc:
        status, reply, error = 0, None, f"{type(exc).__name__}: {exc}"
    sample = Sample(op, t_send if due is None else due, t_send,
                    perf_counter_ns(), status, reply, error, ready)
    if recorder is not None:
        root = recorder.add("op", ROOT_LAYER, sample.due, sample.done, op=op)
        if sample.send > sample.due:
            recorder.add("loadgen.wait", "loadgen", sample.due, sample.send,
                         op=op, parent=root)
        recorder.add("gateway.http.exchange", "gateway.http", sample.send,
                     sample.done, op=op, parent=root)
    return sample


def _fitted_rate(times_ns) -> float:
    """Ops per second: the inverse least-squares slope of the sorted
    times against their rank.  A client that falls behind flattens the
    slope; one late op, even the first or the last, barely moves it."""
    times = np.sort(np.asarray(times_ns, dtype=float)) / 1e9
    return 1.0 / np.polyfit(np.arange(times.size), times, 1)[0]


def offered_rate(open_samples: list[Sample]) -> float:
    """The rate the open loop offered; raises :class:`LoadgenInvalid`
    when the client missed its schedule or the server held it up.

    The client's lag is how long after an op could go out (due, and a
    connection free) it went out; its offered rate counts only that
    lag.  An op's lateness (due to sent) also counts the wait for a free
    connection: when the server is saturated, both connections stay busy
    and the open loop turns into a closed one, so no more than
    :data:`MAX_HELD_SHARE` of the ops may be sent over
    :data:`MAX_LATE_S` late.
    """
    lag = max(s.send - s.ready for s in open_samples) / 1e9
    if lag > MAX_LATE_S:
        raise LoadgenInvalid(f"client sent an op {lag:.3f}s late "
                             f"(limit {MAX_LATE_S}s)")
    held = sum(s.send - s.due > MAX_LATE_S * 1e9 for s in open_samples)
    if held > MAX_HELD_SHARE * len(open_samples):
        raise LoadgenInvalid(f"the server held the open loop: {held} of "
                             f"{len(open_samples)} ops sent more than "
                             f"{MAX_LATE_S}s after due (limit "
                             f"{MAX_HELD_SHARE:.0%})")
    target = _fitted_rate([s.due for s in open_samples])
    offered = _fitted_rate([s.due + s.send - s.ready for s in open_samples])
    if abs(offered / target - 1) > MAX_RATE_MISS:
        raise LoadgenInvalid(f"open loop offered {offered:.2f}/s against "
                             f"{target:.2f}/s (limit {MAX_RATE_MISS:.0%})")
    return offered


def run_threads(targets) -> None:
    """Run each callable on its own thread and wait for all of them."""
    threads = [threading.Thread(target=t, daemon=True) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def _require(sample: Sample, what: str) -> None:
    why = reply_failure(sample)
    if why is not None:
        raise RuntimeError(f"{what}: {why}")


def reply_failure(sample: Sample, want_digest: str | None = None
                  ) -> str | None:
    """Why a reply is wrong, or ``None``."""
    if sample.error is not None:
        return sample.error
    if sample.status != 200:
        return f"HTTP {sample.status}: {(sample.body or {}).get('error')}"
    if sample.body.get("status") != "ok":
        return f"status {sample.body.get('status')}: " \
               f"{sample.body.get('error')}"
    if want_digest is not None and sample.body.get("digest") != want_digest:
        return (f"digest {sample.body.get('digest')} != inline "
                f"{want_digest}")
    return None


# ------------------------------------------------------------------ #
# Shared per-layer metrics                                            #
# ------------------------------------------------------------------ #

def _delta_metrics(before: dict, after: dict, ops: int) -> dict:
    """Per-op journal traffic, refusals and retries from ``/stats``."""
    def totals(stats, key):
        return sum(t[key] for t in stats["admission"]["tenants"].values())

    admitted = totals(after, "admitted") - totals(before, "admitted")
    rejected = totals(after, "rejected") - totals(before, "rejected")
    journal0, journal1 = before["journal"], after["journal"]
    retried = (after["events"]["counts"].get("retried", 0)
               - before["events"]["counts"].get("retried", 0))
    return {
        "gateway.admission.rejected_frac": Metric(
            rejected / max(1, admitted + rejected), "fraction",
            admitted + rejected),
        "gateway.journal.records_per_op": Metric(
            (journal1["records_written"] - journal0["records_written"])
            / max(1, ops), "count", ops),
        "gateway.journal.bytes_per_op": Metric(
            (journal1["bytes_written"] - journal0["bytes_written"])
            / max(1, ops), "bytes", ops),
        "gateway.workers.retries": Metric(retried, "count", ops),
    }


def _reply_metrics(samples: list[Sample]) -> dict:
    """HTTP overhead (client exchange minus the gateway's own
    ``latency_s``) and the ring's busiest slot."""
    ok = [s for s in samples if reply_failure(s) is None]
    overhead = [s.exchange_s - s.body["latency_s"] for s in ok]
    out = {}
    if overhead:
        out["gateway.http.overhead_p50_s"] = p50(overhead)
    tail = p95_or_none(overhead)
    if tail is not None:
        out["gateway.http.overhead_p95_s"] = tail
    slots: dict = {}
    for s in ok:
        slots[s.body["slot"]] = slots.get(s.body["slot"], 0) + 1
    if ok:
        out["gateway.ring.max_slot_share"] = Metric(
            max(slots.values()) / len(ok), "fraction", len(ok))
    return out


def collect_trace(spans_dir: Path, client) -> tuple[list, dict, list]:
    """All spans of a traced pass (client, server, workers), with the
    worker stages synthesized from the server's handle facts: the
    queue (the submit call returned until a worker starts the op) and
    the return (the worker finished until the handle resolved)."""
    spans, roles, facts = list(client.spans()), {client.pid: "client"}, []
    server_pid = None
    for path in sorted(spans_dir.glob("spans-*.jsonl")):
        role, pid, got, got_facts = load_dump(path)
        spans += got
        roles[pid] = role
        facts += got_facts
        if role == "server":
            server_pid = pid
    execs, submits = {}, {}
    for s in spans:
        if s.op < 0:
            continue
        if s.name in ("serve.execute", "gateway.workers.session_batch") \
                and (s.op not in execs or s.start > execs[s.op].start):
            execs[s.op] = s
        elif s.name in ("gateway.submit", "gateway.session_batch"):
            submits[s.op] = s.end
    stages = []
    for fact in facts:
        ex = execs.get(fact["op"])
        if ex is None or fact["done_ns"] is None:
            continue
        # The handler thread journals the dispatch after handing the op
        # to the worker, so the queue starts when ``submit`` returned.
        queued = min(max(fact["submitted_ns"],
                         submits.get(fact["op"], 0)), ex.start)
        for name, start, end in (
                ("gateway.workers.queue", queued, ex.start),
                ("gateway.workers.return", ex.end, fact["done_ns"])):
            stages.append(Span(name, "gateway.workers", start, end,
                               server_pid, 0, -(len(stages) + 1), 0,
                               fact["op"]))
    return spans + stages, roles, facts


def _stage_metrics(facts: list, spans: list) -> dict:
    """Queue wait and return time per op: from the ``JobRecord`` for
    jobs, from the worker's span for session batches."""
    execs = {s.op: s for s in spans
             if s.name == "gateway.workers.session_batch" and s.op >= 0}
    queue, ret, service = [], [], []
    for fact in facts:
        if fact["op"] < 0 or fact["done_ns"] is None:
            continue
        total = (fact["done_ns"] - fact["submitted_ns"]) / 1e9
        if fact["service_s"] is not None:
            wait, busy = fact["queue_wait_s"], fact["service_s"]
            service.append(busy)
        elif fact["op"] in execs:
            ex = execs[fact["op"]]
            wait = (ex.start - fact["submitted_ns"]) / 1e9
            busy = (ex.end - ex.start) / 1e9
        else:
            continue
        queue.append(wait)
        ret.append(total - wait - busy)
    out = {}
    if queue:
        out["gateway.workers.queue_wait_p50_s"] = p50(queue)
        out["gateway.workers.return_p50_s"] = p50(ret)
    tail = p95_or_none(queue)
    if tail is not None:
        out["gateway.workers.queue_wait_p95_s"] = tail
    if service:
        out["serve.service_p50_s"] = p50(service)
    return out


def gateway_layer_metrics(spans, facts) -> dict:
    out = _stage_metrics(facts, spans)
    out.update(span_p50(spans, "gateway.submit_p50_s", "gateway.submit",
                         "gateway.session_batch"))
    out.update(span_p50(spans, "gateway.admission.admit_p50_s",
                         "gateway.admission.admit"))
    out.update(span_p50(spans, "gateway.journal.append_p50_s",
                         "gateway.journal.append"))
    out.update(span_p50(spans, "serve.digest_p50_s", "serve.digest"))
    return out


# ------------------------------------------------------------------ #
# Workloads                                                           #
# ------------------------------------------------------------------ #

class _ServedWorkload:
    """Server lifecycle shared by both gateway workloads."""

    name = ""

    def __init__(self, seed: int, *, setups: int = 3) -> None:
        self.seed = seed
        self.setups = setups
        self.facts: list = []

    def warm(self, server: Server, recorder) -> None:
        """The untimed warm-up ops that end set-up."""
        raise NotImplementedError

    def _run(self, recorder, body) -> Pass:
        """Set up, measure with ``finish = body(server)``, stop, and
        ``return finish(setups, prober)``.

        An untraced pass sets up ``setups`` times (spawn to ``/healthz``
        OK, then the warm-up), stopping all servers but the last; a
        traced pass sets up one traced server.  A host prober samples
        the cores while the servers run; ``finish`` gets the set-ups
        with their probes, and the prober to read each op's.
        """
        workdir = WORK_DIR / f"{self.name}-{os.getpid()}-{time.time_ns()}"
        workdir.mkdir(parents=True)
        spans_dir = None
        if recorder is not None:
            spans_dir = workdir / "spans"
            spans_dir.mkdir()
        servers, stretches = [], []
        try:
            with Prober() as prober:
                for k in range(1 if recorder is not None else self.setups):
                    if servers:
                        servers[-1].stop(graceful=False)
                    servers.append(Server(workdir, f"server{k}",
                                          spans_dir=spans_dir))
                    started = perf_counter_ns()
                    cold = servers[-1].start()
                    warm_start = perf_counter()
                    self.warm(servers[-1], recorder)
                    stretches.append((started, perf_counter_ns(),
                                      cold + perf_counter() - warm_start))
                server = servers[-1]
                finish = body(server)
            setups = [Timed("setup", seconds, prober.probe_between(a, b))
                      for a, b, seconds in stretches]
            result = finish(setups, prober)
            server.stop()
            if recorder is not None:
                result.spans, result.roles, self.facts = collect_trace(
                    spans_dir, recorder)
            return result
        finally:
            for server in servers:
                server.stop(graceful=False)
            shutil.rmtree(workdir, ignore_errors=True)


class GatewayJobs(_ServedWorkload):
    """Tiny jobs: an open loop, then a closed loop."""

    name = "gateway-jobs"

    def __init__(self, seed: int, *, rate: float = ARRIVALS_PER_S,
                 setups: int = 3) -> None:
        super().__init__(seed, setups=setups)
        self.rate = rate
        self._seeds = np.random.default_rng(seed).integers(
            0, 2**31 - 1, size=1 << 16)

    def spec(self, op: int):
        from repro.serve.jobs import JobSpec

        algo, params = JOB_TEMPLATES[op % len(JOB_TEMPLATES)]
        return JobSpec(name=job_name(op, algo), algorithm=algo,
                       params=dict(params),
                       seed=int(self._seeds[op % len(self._seeds)]))

    def _body(self, op: int) -> dict:
        tenant = TENANTS[(op // len(JOB_TEMPLATES)) % len(TENANTS)]
        return {"tenant": tenant, "job": self.spec(op).to_dict()}

    def warm(self, server: Server, recorder) -> None:
        conn = Conn(server.port)
        for k, (algo, params) in enumerate(JOB_TEMPLATES):
            _require(send(conn, JOBS_PATH, {"tenant": TENANTS[0], "job": {
                "name": f"warm-{algo}", "algorithm": algo,
                "params": params, "seed": k}}, -1, None), f"warm-up {algo}")
        conn.close()

    def measure(self, seconds: float, recorder=None) -> Pass:
        t_open = OPEN_SHARE * seconds
        n_open = max(2, round(self.rate * t_open))
        due_s = np.sort(np.random.default_rng([self.seed, 1]).uniform(
            0.0, t_open, n_open))

        def body(server):
            before = server.get("/stats")

            # Phase A, open loop: each arrival goes out on the first
            # free connection and is timed from when it was due.
            start = perf_counter_ns() + 50_000_000
            due = [start + round(d * 1e9) for d in due_s]
            open_samples: list = [None] * n_open
            order = iter(range(n_open))
            lock = threading.Lock()

            def open_client():
                conn = Conn(server.port)
                while True:
                    with lock:
                        i = next(order, None)
                    if i is None:
                        break
                    wait = (due[i] - perf_counter_ns()) / 1e9
                    if wait > 0:
                        time.sleep(wait)
                    open_samples[i] = send(conn, JOBS_PATH, self._body(i), i,
                                           due[i], recorder)
                conn.close()

            run_threads([open_client, open_client])

            # Phase B, closed loop: both connections back to back.
            closed_samples: list = []
            ops = iter(range(n_open, n_open + len(self._seeds)))
            t_b = perf_counter_ns()
            deadline = t_b + round((seconds - t_open) * 1e9)

            def closed_client():
                conn = Conn(server.port)
                while True:
                    with lock:
                        op = next(ops)
                    sample = send(conn, JOBS_PATH, self._body(op), op, None,
                                  recorder)
                    with lock:
                        closed_samples.append(sample)
                    if perf_counter_ns() >= deadline:
                        break
                conn.close()

            run_threads([closed_client, closed_client])
            t_end = max(s.done for s in closed_samples)
            after = server.get("/stats")
            rss = server.peak_rss_mb()

            def finish(setups, prober):
                open_ops = [Timed(self.spec(s.op).algorithm, s.latency_s,
                                  prober.probe_around(s.due, s.done))
                            for s in open_samples]
                window = window_of("closed loop", (t_end - t_b) / 1e9, [
                    Timed("closed", s.latency_s,
                          prober.probe_around(s.send, s.done))
                    for s in closed_samples])
                return self._result(open_samples, open_ops, closed_samples,
                                    window, setups, rss, before, after)
            return finish

        return self._run(recorder, body)

    def _result(self, open_samples, open_ops, closed_samples, window,
                setups, rss, before, after) -> Pass:
        offered = offered_rate(open_samples)
        n = len(open_samples)
        late = [(s.send - s.due) / 1e9 for s in open_samples]

        from repro.serve.pool import run_job

        everything = open_samples + closed_samples
        failures, fails = [], set()
        for s in everything:
            inline = run_job(self.spec(s.op))
            why = (reply_failure(s, inline.result.digest) if inline.ok
                   else f"inline replay failed: {inline.failures}")
            if why is not None:
                failures.append(f"op {s.op}: {why}")
                fails.add(s.op)
        ops = [Timed(op.kind, INF, op.probe) if s.op in fails else op
               for s, op in zip(open_samples, open_ops)]
        ok_closed = [s for s in closed_samples if s.op not in fails]
        metrics = end_to_end(ops, completed=len(ok_closed), window=window,
                             setups=setups, rss=rss)
        metrics["failed_frac"] = Metric(len(failures) / len(everything),
                                        "fraction", len(everything))
        metrics["loadgen.offered_per_s"] = Metric(offered, "1/s", n)
        metrics["loadgen.samples"] = Metric(n, "count", n)
        tail = p95_or_none(late)
        if tail is not None:
            metrics["loadgen.late_p95_s"] = tail
        metrics.update(template_split(ops))
        metrics.update(_reply_metrics(everything))
        metrics.update(_delta_metrics(before, after, len(everything)))
        return Pass(metrics, len(everything), failures)

    def layer_metrics(self, spans, ops) -> dict:
        return gateway_layer_metrics(spans, self.facts)


class GatewaySessions(_ServedWorkload):
    """Two clients, each streaming batches into its own session."""

    name = "gateway-sessions"

    def __init__(self, seed: int, *, plans=SESSIONS,
                 max_batches: int = MAX_BATCHES,
                 check_batches=CHECK_BATCHES, setups: int = 3) -> None:
        super().__init__(seed, setups=setups)
        self.plans = plans
        self.max_batches = max_batches
        self.check_batches = check_batches
        rng = np.random.default_rng([seed, 2])
        self.session_seed = [int(x) for x in
                             rng.integers(0, 2**31 - 1, size=len(plans))]
        self.op_seeds = [[int(x) for x in
                          rng.integers(0, 2**31 - 1, size=max_batches + 1)]
                         for _ in plans]

    def session(self, j: int) -> dict:
        from repro.sessions import SessionSpec

        plan = self.plans[j]
        return SessionSpec(name=plan.name, algorithm=plan.algorithm,
                           params=dict(plan.params),
                           seed=self.session_seed[j]).to_dict()

    def ops(self, j: int, k: int) -> list[dict]:
        """Batch ``k`` (1-based) of stream ``j``."""
        rotation = self.plans[j].rotation
        op, count = rotation[(k - 1) % len(rotation)]
        return [{"op": op, "count": count, "seed": self.op_seeds[j][k]}]

    def cold_digest(self, j: int, k: int) -> str:
        """Arrays digest of a cold adapter run on batches 1..k."""
        from repro.core.counters import OpCounter
        from repro.serve.jobs import JobContext, digest_arrays, get_adapter

        plan = self.plans[j]
        params = dict(plan.params)
        params["mutations"] = [op for b in range(1, k + 1)
                               for op in self.ops(j, b)]
        arrays, _ = get_adapter(plan.algorithm)(
            params, {}, self.session_seed[j], JobContext(counter=OpCounter()))
        return digest_arrays(arrays)

    def _body(self, j: int, k: int) -> dict:
        return {"tenant": self.plans[j].tenant, "session": self.session(j),
                "ops": self.ops(j, k)}

    def warm(self, server: Server, recorder) -> None:
        """Batch 1 of each stream: the session's cold open."""
        conn = Conn(server.port)
        for j, plan in enumerate(self.plans):
            _require(send(conn, BATCH_PATH, self._body(j, 1),
                          plan.op_base + 1, None, recorder),
                     f"cold open {plan.name}")
        conn.close()

    def measure(self, seconds: float, recorder=None) -> Pass:

        def body(server):
            conns = [Conn(server.port) for _ in self.plans]
            before = server.get("/stats")
            streams: list[list] = [[] for _ in self.plans]
            t_start = perf_counter_ns()
            deadline = t_start + round(seconds * 1e9)

            def client(j):
                def loop():
                    for k in range(2, self.max_batches + 1):
                        streams[j].append((k, send(
                            conns[j], BATCH_PATH, self._body(j, k),
                            self.plans[j].op_base + k, None, recorder)))
                        if perf_counter_ns() >= deadline:
                            break
                    conns[j].close()
                return loop

            run_threads([client(j) for j in range(len(self.plans))])
            t_end = max(s.done for stream in streams for _, s in stream)
            after = server.get("/stats")
            rss = server.peak_rss_mb()
            spool = server.dir / "spool"

            def finish(setups, prober):
                probes = [[prober.probe_around(s.send, s.done)
                           for _, s in stream] for stream in streams]
                return self._result(streams, probes, t_end - t_start,
                                    setups, rss, before, after, spool)
            return finish

        return self._run(recorder, body)

    def _result(self, streams, probes, window_ns, setups, rss, before,
                after, spool) -> Pass:
        failures, ok, ops, timed = [], [], [], []
        for j, stream in enumerate(streams):
            name = self.plans[j].name
            ks = [k for k, _ in stream]
            checked = {k for k in self.check_batches if k in ks}
            if ks:
                checked.add(ks[-1])
            for (k, s), probe in zip(stream, probes[j]):
                want = self.cold_digest(j, k) if k in checked else None
                why = reply_failure(s, want)
                if why is not None:
                    failures.append(f"{name} batch {k}: {why}")
                else:
                    ok.append(s)
                op = Timed(self.plans[j].algorithm, s.latency_s, probe)
                timed.append(op)
                ops.append(Timed(op.kind, INF, probe) if why else op)
        window = window_of("window", window_ns / 1e9, timed)
        samples = [s for stream in streams for _, s in stream]
        metrics = end_to_end(ops, completed=len(ok), window=window,
                             setups=setups, rss=rss)
        for algo, xs in by_kind(ops).items():
            metrics[f"sessions.{algo}.batch_p50_s"] = p50(xs)
        batches = [s.body["batch"] for s in ok]
        if batches:
            metrics["sessions.delta_share"] = Metric(
                sum(b["mode"] == "delta" for b in batches) / len(batches),
                "fraction", len(batches))
            metrics["sessions.cost_ratio_p50"] = Metric(
                percentile([b["cost_ratio"] for b in batches], 50),
                "ratio", len(batches))
        sizes = [p.stat().st_size for p in spool.glob("*.ckpt")]
        if sizes:
            metrics["storage.checkpoint_bytes_p50"] = Metric(
                statistics.median(sizes), "bytes", len(sizes))
        metrics.update(_reply_metrics(samples))
        metrics.update(_delta_metrics(before, after, len(samples)))
        return Pass(metrics, len(samples), failures)

    def layer_metrics(self, spans, ops) -> dict:
        out = gateway_layer_metrics(spans, self.facts)
        opens, applies = {}, {}
        for s in spans:
            for plan in self.plans:
                if not plan.op_base < s.op <= plan.op_base + self.max_batches:
                    continue
                dur = (s.end - s.start) / 1e9
                if s.name == "sessions.Session.open":
                    opens[plan.algorithm] = dur
                elif s.name == "sessions.Session.apply_batch":
                    applies.setdefault(plan.algorithm, []).append(dur)
        for algo, durs in applies.items():
            out[f"sessions.apply_p50_s.{algo}"] = p50(durs)
        if opens.get("mst") and applies.get("mst"):
            out["sessions.wall_ratio_p50"] = Metric(
                percentile(applies["mst"], 50) / opens["mst"], "ratio",
                len(applies["mst"]))
        out.update(span_p50(spans, "storage.checkpoint_save_p50_s",
                             "storage.CheckpointStore.save"))
        return out
