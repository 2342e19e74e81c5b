"""Where the traced runs wrap the program.

Each wrapper is installed at the name its caller looks up: a module
attribute (``repro.dmr.refine.three_phase_mark``), a class attribute
(``Journal.append``), or a module the caller reaches through (the
``geo`` module object DMR calls geometry through, replaced by a
namespace of wrapped functions).  Nothing under ``src/`` changes;
:meth:`Patches.restore` puts every original back.
"""

from __future__ import annotations

import inspect
import types
from pathlib import Path

from .spans import Recorder

#: the layer of each serve adapter's driver (others: the algorithm name)
DRIVER_LAYER = {"sp": "satsp", "engine": "core.engine"}

#: request header that carries the benchmark's op id to the server
OP_HEADER = "X-Bench-Op"


class Patches:
    """Installed wrappers, undone by :meth:`restore`."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, name: str, layer: str, **kw) -> None:
        """Wrap ``owner.attr`` (a function, method or classmethod)."""
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            value = classmethod(self.recorder.wrap(raw.__func__, name,
                                                   layer, **kw))
        else:
            value = self.recorder.wrap(raw, name, layer, **kw)
        self.set(owner, attr, value)

    def wrap_module(self, owner, attr: str, layer: str) -> None:
        """Replace the module ``owner.attr`` with a namespace whose
        functions record spans (for callers that write ``mod.fn()``)."""
        module = getattr(owner, attr)
        ns = types.SimpleNamespace()
        for key, value in vars(module).items():
            if inspect.isfunction(value) and not key.startswith("_"):
                value = self.recorder.wrap(value, f"{layer}.{key}", layer)
            setattr(ns, key, value)
        self.set(owner, attr, ns)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _traced_adapters(patches: Patches) -> None:
    """Wrap ``repro.serve.pool.get_adapter`` so every driver adapter it
    hands out records a span in its driver's layer."""
    from repro.serve import pool

    real = pool.get_adapter
    rec = patches.recorder
    cache: dict = {}

    def get_adapter(algorithm):
        if algorithm not in cache:
            layer = DRIVER_LAYER.get(algorithm, algorithm)
            cache[algorithm] = rec.wrap(real(algorithm),
                                        f"{layer}.serve_job", layer)
        return cache[algorithm]

    patches.set(pool, "get_adapter", get_adapter)


def install_dmr(rec: Recorder) -> Patches:
    """``refine_gpu`` and the layers DMR calls into."""
    import repro.dmr as dmr
    from repro.core import conflict
    from repro.core.counters import OpCounter
    from repro.dmr import plan, refine
    from repro.meshing.mesh import TriMesh
    from repro.vgpu.memory import RecyclePool

    p = Patches(rec)
    p.wrap(dmr, "refine_gpu", "dmr.refine_gpu", "dmr")
    for fn in ("three_phase_mark", "two_phase_mark"):
        p.wrap(refine, fn, f"core.conflict.{fn}", "core.conflict")
    p.wrap_module(refine, "geo", "meshing")
    p.wrap(plan, "retriangulate", "meshing.retriangulate", "meshing")
    for meth in ("__init__", "bad_slots", "recompute_quality",
                 "ensure_tri_capacity"):
        p.wrap(TriMesh, meth, f"meshing.TriMesh.{meth}", "meshing")
    p.wrap(refine, "fault_transfer", "vgpu.fault_transfer", "vgpu")
    for meth in ("allocate", "release"):
        p.wrap(RecyclePool, meth, f"vgpu.RecyclePool.{meth}", "vgpu")
    p.wrap(conflict, "scatter_write", "vgpu.scatter_write", "vgpu")
    p.wrap(OpCounter, "launch", "core.counters.launch", "core.counters")
    return p


def install_serve(rec: Recorder) -> Patches:
    """``run_job``, its driver adapters and the result digest."""
    from repro.serve import pool

    p = Patches(rec)
    p.wrap(pool, "run_job", "serve.run_job", "serve")
    p.wrap(pool, "digest_arrays", "serve.digest", "serve")
    _traced_adapters(p)
    return p


def install_gateway(rec: Recorder, spans_dir: Path, *, job_op, session_op,
                    record_op) -> tuple[Patches, list]:
    """The gateway server's layers, in this process and (inherited by
    fork) in its workers.

    ``job_op(spec_name)``, ``session_op(session_name, batch_index)``
    and ``record_op(journal_record)`` recover the op id a call serves.
    Returns the patches and a list that collects ``(op, JobHandle)``
    for every submission.
    """
    from multiprocessing.util import register_after_fork

    from repro.gateway import workers
    from repro.gateway.admission import AdmissionController
    from repro.gateway.gateway import Gateway
    from repro.gateway.http import _Handler
    from repro.gateway.journal import Journal
    from repro.serve import pool
    from repro.serve.checkpoint import CheckpointStore
    from repro.sessions import session as session_mod

    handles: list = []

    def header_op(args, kwargs):
        raw = args[0].headers.get(OP_HEADER)
        return int(raw) if raw is not None else None

    def keep_handle(handle, op):
        handles.append((op, handle))

    p = Patches(rec)
    for meth in ("do_POST", "do_GET"):
        p.wrap(_Handler, meth, f"gateway.http.{meth}", "gateway.http",
               op_of=header_op)
    p.wrap(Gateway, "submit", "gateway.submit", "gateway",
           on_return=keep_handle)
    p.wrap(Gateway, "session_batch", "gateway.session_batch", "gateway",
           on_return=keep_handle)
    p.wrap(AdmissionController, "admit", "gateway.admission.admit",
           "gateway.admission")
    p.wrap(Journal, "append", "gateway.journal.append", "gateway.journal",
           op_of=lambda args, kw: (None if rec.current_op() >= 0
                                   else record_op(args[1])))
    p.wrap(workers, "_execute_job", "serve.execute", "serve",
           op_of=lambda args, kw: job_op(args[0]["name"]))
    p.wrap(workers, "_apply_session_batch", "gateway.workers.session_batch",
           "gateway.workers",
           op_of=lambda args, kw: session_op(args[2]["session"]["name"],
                                             int(args[2]["batch_index"])))
    p.wrap(session_mod.Session, "open", "sessions.Session.open", "sessions")
    p.wrap(session_mod.Session, "apply_batch", "sessions.Session.apply_batch",
           "sessions")
    p.wrap(CheckpointStore, "save", "storage.CheckpointStore.save",
           "storage")
    p.wrap(pool, "digest_arrays", "serve.digest", "serve")
    p.wrap(session_mod, "digest_arrays", "serve.digest", "serve")
    _traced_adapters(p)
    register_after_fork(rec, lambda r: r.after_fork(spans_dir))
    return p, handles
