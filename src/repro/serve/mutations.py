"""Deterministic per-job input-mutation streams.

The paper's workloads are *morph* algorithms — their whole point is
behavior under dynamic mutation — yet a plain :class:`~.jobs.JobSpec`
describes a static input built from ``params`` + ``seed``.  This module
closes that gap: a spec's ``params["mutations"]`` may carry an ordered
list of mutation operations that the driver adapters apply to the
generated input *before* (or, for DMR's point insertion, *through*) the
run.  Each operation is plain JSON data with its own ``seed``, so a
recorded scenario (:mod:`repro.scenarios`) replays the exact same
update stream — the Meerkat-style recorded-trace methodology.

Every op is a dict ``{"op": <name>, "count": <int>, "seed": <int>}``
(plus op-specific extras).  The vocabulary is per input family:

===========  ===========================================================
algorithm    operations
===========  ===========================================================
``mst``,     ``add_edges`` (fresh non-duplicate undirected edges),
``engine``   ``drop_edges``, ``reweight_edges``
``sp``       ``add_clauses`` (fresh K-uniform clauses), ``drop_clauses``
``pta``      ``add_constraints`` (a fresh C-like constraint batch),
             ``drop_constraints``
``insertion``  ``add_points`` (extra interior points; ``box`` optional),
               ``drop_points``
``dmr``      ``insert_points`` — insert ``count`` interior points via
             the §9 GPU insertion driver, then refine the mutated mesh
===========  ===========================================================

All application functions are pure with respect to the op's ``seed``
(they never touch the job RNG), which is what makes a mutation stream a
*recordable* artifact rather than a side effect.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = ["OPS_BY_ALGORITHM", "GraphMutationEffect", "check_mutations",
           "apply_graph_mutations", "apply_graph_mutations_tracked",
           "apply_clause_mutations", "apply_clause_mutations_tracked",
           "apply_constraint_mutations",
           "apply_constraint_mutations_tracked",
           "apply_point_mutations", "mutation_points"]

#: max exclusive edge weight, matching ``repro.graphgen.generators``
_MAX_W = 1 << 24

GRAPH_OPS = ("add_edges", "drop_edges", "reweight_edges")
CLAUSE_OPS = ("add_clauses", "drop_clauses")
CONSTRAINT_OPS = ("add_constraints", "drop_constraints")
POINT_OPS = ("add_points", "drop_points")
MESH_OPS = ("insert_points",)

#: which mutation vocabulary each serve algorithm understands
OPS_BY_ALGORITHM: dict[str, tuple[str, ...]] = {
    "dmr": MESH_OPS,
    "insertion": POINT_OPS,
    "sp": CLAUSE_OPS,
    "pta": CONSTRAINT_OPS,
    "mst": GRAPH_OPS,
    "engine": GRAPH_OPS,
}


def check_mutations(algorithm: str, mutations) -> list[dict]:
    """Validate a spec's mutation stream; returns it as a list of dicts.

    An empty (or missing) stream is a valid no-op, never an error.
    Unknown operations raise ``ValueError`` naming each offending op's
    *index* in the stream and the algorithm's vocabulary — the same
    loud-rejection discipline as ``ConfigSpace.check_strategy`` for
    strategy keys, but addressable: ``op[3]`` tells the caller exactly
    which entry of a long recorded stream to look at.
    """
    if not mutations:
        return []
    known = OPS_BY_ALGORITHM.get(algorithm)
    if known is None:
        raise ValueError(f"algorithm {algorithm!r} takes no mutations")
    out: list[dict] = []
    bad: list[str] = []
    for i, op in enumerate(mutations):
        if not isinstance(op, Mapping) or "op" not in op:
            raise ValueError(
                f"op[{i}]: each mutation must be a dict with an 'op' key; "
                f"got {op!r}")
        if op["op"] not in known:
            bad.append(f"op[{i}]={str(op['op'])!r}")
        out.append(dict(op))
    if bad:
        raise ValueError(
            f"unknown mutation op(s) for {algorithm}: {', '.join(bad)}; "
            f"known: {', '.join(known)}")
    return out


def _op_rng(op: Mapping) -> np.random.Generator:
    return np.random.default_rng(int(op.get("seed", 0)))


def _count(op: Mapping) -> int:
    return max(0, int(op.get("count", 0)))


def _drop_indices(rng: np.random.Generator, size: int, count: int) -> np.ndarray:
    keep = np.ones(size, dtype=bool)
    if size and count:
        drop = rng.choice(size, size=min(count, size), replace=False)
        keep[drop] = False
    return keep


# ------------------------------------------------------------------ #
# Graphs (mst, engine)                                                #
# ------------------------------------------------------------------ #

class GraphMutationEffect:
    """Index bookkeeping for one tracked edge-mutation batch.

    ``index_map[i]`` is where pre-batch edge ``i`` landed in the
    post-batch list (``-1`` if a ``drop_edges`` removed it); ``changed``
    flags post-batch edges whose weight cannot be trusted to equal the
    pre-batch value — rows appended by ``add_edges`` or re-drawn by
    ``reweight_edges``.  Incremental consumers (the
    :mod:`repro.sessions` MST delta planner) use the pair to remap a
    previously computed answer onto the mutated edge list.
    """

    def __init__(self, num_edges: int) -> None:
        self.index_map = np.arange(num_edges, dtype=np.int64)
        self.changed = np.zeros(num_edges, dtype=bool)

    def on_add(self, count: int) -> None:
        self.changed = np.concatenate(
            [self.changed, np.ones(count, dtype=bool)])

    def on_drop(self, keep: np.ndarray) -> None:
        new_pos = np.cumsum(keep, dtype=np.int64) - 1
        live = self.index_map >= 0
        kept = np.zeros_like(live)
        kept[live] = keep[self.index_map[live]]
        self.index_map[live & ~kept] = -1
        live &= kept
        self.index_map[live] = new_pos[self.index_map[live]]
        self.changed = self.changed[keep]

    def on_reweight(self, idx: np.ndarray) -> None:
        self.changed[idx] = True


def apply_graph_mutations(num_nodes: int, lo: np.ndarray, hi: np.ndarray,
                          w: np.ndarray, mutations: Iterable[Mapping]):
    """Apply an edge-mutation stream to an undirected edge list.

    Edges are the generator convention: each undirected edge once with
    ``lo < hi``, no self-loops, no parallels — invariants every op
    preserves.
    """
    lo, hi, w, _ = apply_graph_mutations_tracked(num_nodes, lo, hi, w,
                                                 mutations)
    return lo, hi, w


def apply_graph_mutations_tracked(num_nodes: int, lo: np.ndarray,
                                  hi: np.ndarray, w: np.ndarray,
                                  mutations: Iterable[Mapping]):
    """:func:`apply_graph_mutations` plus a :class:`GraphMutationEffect`.

    Byte-identical edge output (same RNG draw sequence); the extra
    return value only *observes* what each op did.
    """
    lo = np.asarray(lo, dtype=np.int64).copy()
    hi = np.asarray(hi, dtype=np.int64).copy()
    w = np.asarray(w, dtype=np.int64).copy()
    effect = GraphMutationEffect(lo.size)
    for op in mutations:
        rng, count = _op_rng(op), _count(op)
        if op["op"] == "add_edges":
            existing = set((lo * np.int64(num_nodes) + hi).tolist())
            new_lo, new_hi = [], []
            # Draw in deterministic rounds until count fresh edges land
            # (or the graph is complete and no fresh edge exists).
            attempts = 0
            while len(new_lo) < count and attempts < 64:
                attempts += 1
                a = rng.integers(0, num_nodes, size=2 * count + 8,
                                 dtype=np.int64)
                b = rng.integers(0, num_nodes, size=a.size, dtype=np.int64)
                cl, ch = np.minimum(a, b), np.maximum(a, b)
                for u, v in zip(cl.tolist(), ch.tolist()):
                    if u == v or len(new_lo) >= count:
                        continue
                    key = u * num_nodes + v
                    if key in existing:
                        continue
                    existing.add(key)
                    new_lo.append(u)
                    new_hi.append(v)
            nw = rng.integers(1, _MAX_W, size=len(new_lo), dtype=np.int64)
            lo = np.concatenate([lo, np.array(new_lo, dtype=np.int64)])
            hi = np.concatenate([hi, np.array(new_hi, dtype=np.int64)])
            w = np.concatenate([w, nw])
            effect.on_add(len(new_lo))
        elif op["op"] == "drop_edges":
            keep = _drop_indices(rng, lo.size, count)
            lo, hi, w = lo[keep], hi[keep], w[keep]
            effect.on_drop(keep)
        elif op["op"] == "reweight_edges":
            if lo.size and count:
                idx = rng.choice(lo.size, size=min(count, lo.size),
                                 replace=False)
                w[idx] = rng.integers(1, _MAX_W, size=idx.size,
                                      dtype=np.int64)
                effect.on_reweight(idx)
        else:  # pragma: no cover - check_mutations rejects these
            raise ValueError(f"unknown graph mutation {op['op']!r}")
    return lo, hi, w, effect


# ------------------------------------------------------------------ #
# Formulas (sp)                                                       #
# ------------------------------------------------------------------ #

def apply_clause_mutations(cnf, mutations: Iterable[Mapping]):
    """Apply a clause-mutation stream to a :class:`repro.satsp.formula.CNF`."""
    return apply_clause_mutations_tracked(cnf, mutations)[0]


def apply_clause_mutations_tracked(cnf, mutations: Iterable[Mapping]):
    """:func:`apply_clause_mutations` plus one ``(added, dropped)`` pair
    of ``CNF`` per op: the clauses it appended and those it removed."""
    from ..satsp.formula import CNF, random_ksat

    vars_, signs = cnf.vars, cnf.signs
    none = CNF(cnf.num_vars, vars_[:0], signs[:0])
    changes = []
    for op in mutations:
        rng, count = _op_rng(op), _count(op)
        if op["op"] == "add_clauses":
            extra = random_ksat(cnf.num_vars, k=cnf.k, num_clauses=count,
                                seed=int(op.get("seed", 0)))
            vars_ = np.concatenate([vars_, extra.vars])
            signs = np.concatenate([signs, extra.signs])
            changes.append((extra, none))
        elif op["op"] == "drop_clauses":
            keep = _drop_indices(rng, vars_.shape[0], count)
            changes.append((none, CNF(cnf.num_vars, vars_[~keep],
                                      signs[~keep])))
            vars_, signs = vars_[keep], signs[keep]
        else:  # pragma: no cover
            raise ValueError(f"unknown clause mutation {op['op']!r}")
    return CNF(cnf.num_vars, vars_, signs), changes


# ------------------------------------------------------------------ #
# Constraint sets (pta)                                               #
# ------------------------------------------------------------------ #

def apply_constraint_mutations(cons, mutations: Iterable[Mapping]):
    """Apply a constraint-mutation stream to a
    :class:`repro.pta.constraints.Constraints` set."""
    return apply_constraint_mutations_tracked(cons, mutations)[0]


def apply_constraint_mutations_tracked(cons, mutations: Iterable[Mapping]):
    """:func:`apply_constraint_mutations` plus one ``(added, dropped)``
    pair of ``Constraints`` per op: the constraints it appended and
    those it removed."""
    from ..pta.constraints import Constraints, generate_constraints

    kind, lhs, rhs = cons.kind, cons.lhs, cons.rhs
    none = Constraints(cons.num_vars, kind[:0], lhs[:0], rhs[:0])
    changes = []
    for op in mutations:
        rng, count = _op_rng(op), _count(op)
        if op["op"] == "add_constraints":
            extra = generate_constraints(cons.num_vars, count,
                                         seed=int(op.get("seed", 0)))
            kind = np.concatenate([kind, extra.kind])
            lhs = np.concatenate([lhs, extra.lhs])
            rhs = np.concatenate([rhs, extra.rhs])
            changes.append((extra, none))
        elif op["op"] == "drop_constraints":
            keep = _drop_indices(rng, kind.size, count)
            changes.append((none, Constraints(cons.num_vars, kind[~keep],
                                              lhs[~keep], rhs[~keep])))
            kind, lhs, rhs = kind[keep], lhs[keep], rhs[keep]
        else:  # pragma: no cover
            raise ValueError(f"unknown constraint mutation {op['op']!r}")
    return Constraints(cons.num_vars, kind, lhs, rhs), changes


# ------------------------------------------------------------------ #
# Point streams (insertion) and mesh insertions (dmr)                 #
# ------------------------------------------------------------------ #

def _box(op: Mapping) -> tuple[float, float]:
    box = op.get("box", (0.3, 0.7))
    if not (isinstance(box, Sequence) and len(box) == 2):
        raise ValueError(f"mutation box must be (lo, hi); got {box!r}")
    return float(box[0]), float(box[1])


def mutation_points(op: Mapping) -> tuple[np.ndarray, np.ndarray]:
    """``count`` uniform points in the op's ``box`` (default the interior
    ``[0.3, 0.7]^2`` every generated mesh covers), from the op's seed."""
    rng, count = _op_rng(op), _count(op)
    lo, hi = _box(op)
    return rng.uniform(lo, hi, count), rng.uniform(lo, hi, count)


def apply_point_mutations(x: np.ndarray, y: np.ndarray,
                          mutations: Iterable[Mapping]):
    """Apply a point-stream mutation list to an insertion point batch."""
    x = np.asarray(x, dtype=np.float64).copy()
    y = np.asarray(y, dtype=np.float64).copy()
    for op in mutations:
        if op["op"] == "add_points":
            mx, my = mutation_points(op)
            x = np.concatenate([x, mx])
            y = np.concatenate([y, my])
        elif op["op"] == "drop_points":
            keep = _drop_indices(_op_rng(op), x.size, _count(op))
            x, y = x[keep], y[keep]
        else:  # pragma: no cover
            raise ValueError(f"unknown point mutation {op['op']!r}")
    return x, y
