"""Rule registry and whole-program checks over kernel effect summaries.

Static rules (run by ``python -m repro.analysis.static``):

``STA201`` **write-write race** — unsynchronized concurrent stores that
    can leave an array in a state no serial order explains: either two
    plain stores to one array inside a single barrier interval, or the
    Section 7.3 two-phase shape — a concurrent plain store to an array
    that is also *read* in the same interval, with no later read-only
    interval adjudicating the outcome.  The paper's three-phase marking
    passes (its final ``check`` phase is exactly that read-only
    interval); the two-phase variant is flagged.

``STA202`` **barrier divergence** — in an SPMD generator kernel, a
    ``yield`` (device-wide barrier) reachable on only some control
    paths: under an unbalanced ``if``, inside a ``while``, or inside a
    ``for`` whose trip count depends on the thread id.  The classic
    ``__syncthreads`` divergence bug, caught without running a thread.

``STA203`` **allocator lifetime** — straight-line use-after-free or
    double-free of a device allocation / recycle-pool handle
    (``free``/``release``/``realloc`` vocabulary of
    :mod:`repro.vgpu.memory`).  Branches are analyzed independently and
    never merged, so only must-happen bugs are reported.

``STA204`` **determinism** — unseeded RNG (``default_rng()`` with no
    seed, legacy global ``np.random.*``, stdlib ``random.*``) or
    iteration over an unordered set inside a kernel body: both make a
    kernel's output irreproducible across runs, which breaks the
    repository's byte-identical-digest contract.

``STA205`` **effect-manifest drift** — a kernel's computed effect
    summary disagrees with the reviewed manifest checked in under
    ``docs/manifests/`` (or a kernel/manifest entry is missing).
    Kernel effects are a reviewed artifact: changing what a kernel
    touches requires regenerating the manifest in the same commit
    (``--write-manifests``).

The four ``KRN101``–``KRN104`` AST lint rules (raw store in a launch
block, host thread loop, missing op accounting, bare ``except``) live
in the same registry and report through the same finding type, CLI,
suppressions and baseline; ``--rules KRN101,KRN102,KRN103,KRN104``
runs just them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable

from .extract import Program, dotted_name
from .model import READ, STORE, StaticFinding

__all__ = ["Rule", "RULES", "rule_codes", "run_rules"]

_RELEASE_ATTRS = {"free", "release"}


@dataclass(frozen=True)
class Rule:
    code: str
    name: str
    summary: str
    check: Callable[["RuleContext"], list[StaticFinding]]


@dataclass
class RuleContext:
    program: Program
    #: package name -> parsed manifest dict (None disables STA205)
    manifests: dict | None = None


RULES: dict[str, Rule] = {}


def _rule(code: str, name: str, summary: str):
    def deco(fn):
        RULES[code] = Rule(code, name, summary, fn)
        return fn
    return deco


def rule_codes() -> list[str]:
    return sorted(RULES)


def run_rules(program: Program, *, codes=None,
              manifests: dict | None = None) -> list[StaticFinding]:
    """Run the selected rules; findings sorted and de-duplicated."""
    ctx = RuleContext(program, manifests)
    findings: list[StaticFinding] = []
    for code in rule_codes():
        if codes is not None and code not in codes:
            continue
        findings.extend(RULES[code].check(ctx))
    seen: set[tuple] = set()
    out: list[StaticFinding] = []
    for f in sorted(findings, key=lambda f: (f.path, f.line, f.code)):
        key = (f.path, f.line, f.code, f.array)
        if key not in seen:
            seen.add(key)
            out.append(f)
    return out


# --------------------------------------------------------------------- #
# STA201 — static write-write race                                      #
# --------------------------------------------------------------------- #

@_rule("STA201", "write-write-race",
       "unsynchronized concurrent stores to one array in a single "
       "barrier interval (the §7.3 two-phase marking bug)")
def _sta201(ctx: RuleContext) -> list[StaticFinding]:
    out: list[StaticFinding] = []
    for k in ctx.program.kernels:
        # (a) two concurrent (multi-thread) plain stores to one array
        # inside one interval.  Host-serialized subscript stores do not
        # pair with a device scatter: in the vectorized idiom host code
        # runs strictly before/after the launch, not during it.
        for iv in k.intervals:
            by_array: dict[str, list] = {}
            for a in iv.accesses:
                if a.kind == STORE and a.concurrent:
                    by_array.setdefault(a.array, []).append(a)
            for array, conc in by_array.items():
                lines = {a.line for a in conc}
                if len(lines) > 1:
                    out.append(StaticFinding(
                        k.path, max(a.line for a in conc), "STA201",
                        f"two unsynchronized plain stores to '{array}' in "
                        f"one barrier interval of kernel '{k.kernel}'; the "
                        "surviving value depends on thread interleaving — "
                        "use atomics or separate the stores with a barrier",
                        kernel=k.key, array=array))
        # (b) the two-phase marking shape: the *last* interval that
        # concurrently stores to an array also reads it, and no later
        # read-only interval adjudicates the outcome.
        for array in k.arrays(STORE, concurrent=True):
            store_ivs = [i for i, iv in enumerate(k.intervals)
                         if any(a.concurrent for a in
                                iv.accesses_of(STORE, array))]
            last = max(store_ivs)
            if array not in k.intervals[last].arrays(READ):
                continue
            adjudicated = any(
                array in k.intervals[j].arrays(READ)
                and not any(a.concurrent for a in
                            k.intervals[j].accesses_of(STORE, array))
                for j in range(last + 1, len(k.intervals)))
            if not adjudicated:
                line = max(a.line for a in
                           k.intervals[last].accesses_of(STORE, array)
                           if a.concurrent)
                out.append(StaticFinding(
                    k.path, line, "STA201",
                    f"kernel '{k.kernel}' reads and concurrently stores "
                    f"'{array}' in the same barrier interval with no later "
                    "read-only check phase; exclusive-ownership decisions "
                    "taken from that stale read can overlap (§7.3 "
                    "two-phase marking race — add a check phase after a "
                    "barrier, as in three_phase_mark)",
                    kernel=k.key, array=array))
    return out


# --------------------------------------------------------------------- #
# STA202 — barrier divergence                                           #
# --------------------------------------------------------------------- #

def _yields_in(stmts) -> int:
    n = 0
    for s in stmts:
        if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef,
                          ast.ClassDef)):
            continue
        for node in ast.walk(s):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                n += 1
    return n


def _names_in(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


@_rule("STA202", "barrier-divergence",
       "a device-wide barrier (SPMD yield) reachable on only some "
       "control paths — threads would deadlock at __syncthreads")
def _sta202(ctx: RuleContext) -> list[StaticFinding]:
    out: list[StaticFinding] = []
    for k in ctx.program.kernels:
        if k.kind != "spmd" or not k.generator or k.node is None:
            continue
        fn = k.node
        tid = fn.args.args[0].arg if fn.args.args else ""

        def walk(stmts) -> None:
            for s in stmts:
                if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                    continue
                if isinstance(s, ast.If):
                    nb, no = _yields_in(s.body), _yields_in(s.orelse)
                    if nb != no:
                        side = s.body if nb > no else s.orelse
                        out.append(StaticFinding(
                            k.path, _yield_line(side) or s.lineno, "STA202",
                            f"kernel '{k.kernel}': barrier (yield) inside "
                            "an unbalanced conditional — threads taking "
                            "the other branch never reach it; hoist the "
                            "barrier out of the branch",
                            kernel=k.key))
                elif isinstance(s, ast.While):
                    if _yields_in(s.body):
                        out.append(StaticFinding(
                            k.path, _yield_line(s.body) or s.lineno,
                            "STA202",
                            f"kernel '{k.kernel}': barrier (yield) inside "
                            "a while loop whose trip count may differ per "
                            "thread", kernel=k.key))
                elif isinstance(s, ast.For):
                    if _yields_in(s.body) and tid and tid in _names_in(s.iter):
                        out.append(StaticFinding(
                            k.path, _yield_line(s.body) or s.lineno,
                            "STA202",
                            f"kernel '{k.kernel}': barrier (yield) inside "
                            "a loop whose trip count depends on the thread "
                            f"id '{tid}'", kernel=k.key))
                for blk in ("body", "orelse", "finalbody"):
                    walk(getattr(s, blk, []) or [])
                for handler in getattr(s, "handlers", []) or []:
                    walk(handler.body)

        walk(fn.body)
    return out


def _yield_line(stmts) -> int | None:
    for s in stmts:
        for node in ast.walk(s):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return node.lineno
    return None


# --------------------------------------------------------------------- #
# STA203 — allocator lifetime                                           #
# --------------------------------------------------------------------- #

@_rule("STA203", "allocator-lifetime",
       "straight-line use-after-free / double-free of a device "
       "allocation or recycle-pool handle")
def _sta203(ctx: RuleContext) -> list[StaticFinding]:
    out: list[StaticFinding] = []
    for mod in ctx.program.modules:
        for info in mod.all_functions:
            _lifetime_block(info.node.body, {}, mod.path, out)
    return out


def _header_exprs(stmt: ast.stmt) -> list[ast.AST]:
    """The expressions evaluated by ``stmt`` itself, *excluding* nested
    statement blocks (those are walked separately with their own copy
    of the lifetime state)."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, ast.For):
        return [stmt.iter]
    if isinstance(stmt, ast.With):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Try):
        return []
    return [stmt]


def _free_calls(stmt: ast.stmt) -> list[tuple[str, int, str]]:
    """(handle, line, verb) for free/release/realloc calls in the
    statement's own expressions."""
    frees = []
    for expr in _header_exprs(stmt):
        for node in ast.walk(expr):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in _RELEASE_ATTRS | {"realloc"} \
                    and node.args:
                name = dotted_name(node.args[0])
                if name:
                    frees.append((name, node.lineno, node.func.attr))
    return frees


def _loads_in(stmt: ast.stmt) -> dict[str, int]:
    loads: dict[str, int] = {}
    for expr in _header_exprs(stmt):
        for node in ast.walk(expr):
            if isinstance(node, (ast.Name, ast.Attribute)) and \
                    isinstance(getattr(node, "ctx", None), ast.Load):
                name = dotted_name(node)
                if name:
                    loads.setdefault(name, node.lineno)
    return loads


def _assigned_names(stmt: ast.stmt) -> set[str]:
    names: set[str] = set()
    targets: list[ast.AST] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    elif isinstance(stmt, ast.For):
        targets = [stmt.target]
    for t in targets:
        elts = t.elts if isinstance(t, (ast.Tuple, ast.List)) else [t]
        for e in elts:
            if isinstance(e, (ast.Name, ast.Attribute)):
                name = dotted_name(e)
                if name:
                    names.add(name)
    return names


def _lifetime_block(stmts, state: dict, path: str,
                    out: list[StaticFinding]) -> None:
    """Walk one straight-line block; ``state`` maps freed handle names to
    (line, verb).  Branch bodies get an independent copy of the state
    (no merge), so reported bugs hold on every execution of the block."""
    for stmt in stmts:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        frees = _free_calls(stmt)
        freed_here = {name for name, _, _ in frees}
        for name, line in _loads_in(stmt).items():
            if name in state and name not in freed_here:
                fline, verb = state[name]
                out.append(StaticFinding(
                    path, line, "STA203",
                    f"use of handle '{name}' after it was "
                    f"{verb}d at line {fline} (use-after-free)",
                    array=name))
                del state[name]  # report once per handle
        for name, line, verb in frees:
            if name in state:
                fline, _ = state[name]
                out.append(StaticFinding(
                    path, line, "STA203",
                    f"handle '{name}' released twice ({verb} at line "
                    f"{line}, already freed at line {fline}) — double-free",
                    array=name))
            else:
                state[name] = (line, verb)
        for name in _assigned_names(stmt):
            state.pop(name, None)
        if isinstance(stmt, ast.With):
            _lifetime_block(stmt.body, state, path, out)
        else:
            for blk in ("body", "orelse", "finalbody"):
                for sub in [getattr(stmt, blk, []) or []]:
                    if sub:
                        _lifetime_block(sub, dict(state), path, out)
            for handler in getattr(stmt, "handlers", []) or []:
                _lifetime_block(handler.body, dict(state), path, out)


# --------------------------------------------------------------------- #
# STA204 — determinism                                                  #
# --------------------------------------------------------------------- #

@_rule("STA204", "determinism",
       "unseeded RNG or ordering-sensitive iteration inside a kernel "
       "body — output becomes irreproducible across runs")
def _sta204(ctx: RuleContext) -> list[StaticFinding]:
    out: list[StaticFinding] = []
    for k in ctx.program.kernels:
        for ev in k.rng_events:
            via = f" (via helper {ev.via})" if ev.via else ""
            out.append(StaticFinding(
                k.path, ev.line, "STA204",
                f"kernel '{k.kernel}': {ev.what}{via}", kernel=k.key))
    return out


# --------------------------------------------------------------------- #
# STA205 — effect-manifest drift                                        #
# --------------------------------------------------------------------- #

def kernel_package(path: str) -> str | None:
    """Package component under ``repro`` (``src/repro/dmr/... -> dmr``)."""
    parts = path.replace("\\", "/").split("/")
    if "repro" in parts:
        idx = parts.index("repro")
        if idx + 2 < len(parts):
            return parts[idx + 1]
    return None


@_rule("STA205", "effect-manifest-drift",
       "a kernel's computed effect summary disagrees with the reviewed "
       "manifest under docs/manifests/")
def _sta205(ctx: RuleContext) -> list[StaticFinding]:
    if ctx.manifests is None:
        return []
    out: list[StaticFinding] = []
    seen_keys: dict[str, set[str]] = {pkg: set() for pkg in ctx.manifests}
    for k in ctx.program.kernels:
        pkg = kernel_package(k.path)
        if pkg not in ctx.manifests:
            continue
        entries = ctx.manifests[pkg].get("kernels", {})
        seen_keys[pkg].add(k.key)
        entry = entries.get(k.key)
        computed = k.manifest_entry()
        if entry is None:
            out.append(StaticFinding(
                k.path, k.line, "STA205",
                f"kernel '{k.kernel}' has no entry in the '{pkg}' effect "
                "manifest — kernel effects are a reviewed artifact; run "
                "`python -m repro.analysis.static src/repro "
                "--write-manifests docs/manifests` and commit the result",
                kernel=k.key))
        elif entry != computed:
            drift = _describe_drift(entry, computed)
            out.append(StaticFinding(
                k.path, k.line, "STA205",
                f"kernel '{k.kernel}' effects drifted from the '{pkg}' "
                f"manifest ({drift}) — review the change and regenerate "
                "with --write-manifests", kernel=k.key))
    for pkg, manifest in ctx.manifests.items():
        for key in sorted(set(manifest.get("kernels", {})) - seen_keys[pkg]):
            path = key.split("::", 1)[0]
            out.append(StaticFinding(
                path, 0, "STA205",
                f"stale manifest entry '{key}' in the '{pkg}' manifest: no "
                "such kernel in the analyzed sources — regenerate with "
                "--write-manifests", kernel=key))
    return out


def _describe_drift(expected: dict, computed: dict) -> str:
    parts = []
    for field in sorted(set(expected) | set(computed)):
        a, b = expected.get(field), computed.get(field)
        if a != b:
            parts.append(f"{field}: manifest {a!r} != code {b!r}")
    return "; ".join(parts) or "unknown drift"


# --------------------------------------------------------------------- #
# KRN101–104 — the folded AST lint rules                                #
# --------------------------------------------------------------------- #

def _is_launch_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "launch")


def _is_constant_subscript(sub: ast.Subscript) -> bool:
    sl = sub.slice
    if isinstance(sl, (ast.Constant, ast.Slice)):
        return True
    if isinstance(sl, ast.UnaryOp) and isinstance(sl.operand, ast.Constant):
        return True
    if isinstance(sl, ast.Tuple):
        return all(isinstance(e, (ast.Constant, ast.Slice)) for e in sl.elts)
    return False


def _launch_blocks(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.With):
            items = [i for i in node.items
                     if _is_launch_call(i.context_expr)]
            if items:
                yield node, items


@_rule("KRN101", "raw-store-in-kernel",
       "plain fancy store inside a kernel launch block; use "
       "scatter_write or an atomic_* primitive")
def _krn101(ctx: RuleContext) -> list[StaticFinding]:
    out: list[StaticFinding] = []
    for mod in ctx.program.modules:
        for block, _items in _launch_blocks(mod.tree):
            for stmt in block.body:
                for node in ast.walk(stmt):
                    targets = []
                    if isinstance(node, ast.Assign):
                        targets = node.targets
                    elif isinstance(node, ast.AugAssign):
                        targets = [node.target]
                    for t in targets:
                        if isinstance(t, ast.Subscript) and \
                                not _is_constant_subscript(t):
                            out.append(StaticFinding(
                                mod.path, t.lineno, "KRN101",
                                "plain fancy store inside a kernel launch "
                                "block; use vgpu.atomics.scatter_write or "
                                "an atomic_* primitive so race semantics "
                                "are modeled"))
    return out


@_rule("KRN102", "host-loop-over-threads",
       "host-side Python loop over range() inside a vectorized kernel "
       "block")
def _krn102(ctx: RuleContext) -> list[StaticFinding]:
    out: list[StaticFinding] = []
    for mod in ctx.program.modules:
        for block, _items in _launch_blocks(mod.tree):
            for stmt in block.body:
                for node in ast.walk(stmt):
                    if isinstance(node, ast.For) and \
                            isinstance(node.iter, ast.Call) and \
                            isinstance(node.iter.func, ast.Name) and \
                            node.iter.func.id == "range":
                        out.append(StaticFinding(
                            mod.path, node.lineno, "KRN102",
                            "host-side Python loop over range() inside a "
                            "vectorized kernel block; vectorize it or move "
                            "it to an SPMD generator kernel"))
    return out


@_rule("KRN103", "missing-op-accounting",
       "kernel launch block never records its operation counts")
def _krn103(ctx: RuleContext) -> list[StaticFinding]:
    out: list[StaticFinding] = []
    for mod in ctx.program.modules:
        for block, items in _launch_blocks(mod.tree):
            rec_names = {i.optional_vars.id for i in items
                         if isinstance(i.optional_vars, ast.Name)}
            if not rec_names:
                continue
            called = any(
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in rec_names
                for stmt in block.body for node in ast.walk(stmt))
            if not called:
                out.append(StaticFinding(
                    mod.path, block.lineno, "KRN103",
                    "kernel launch block never records its operation "
                    "counts (rec(...) not called); the cost model will "
                    "price it as an empty dispatch"))
    return out


@_rule("KRN104", "bare-except",
       "bare except hides engine/geometry errors")
def _krn104(ctx: RuleContext) -> list[StaticFinding]:
    out: list[StaticFinding] = []
    for mod in ctx.program.modules:
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                out.append(StaticFinding(
                    mod.path, node.lineno, "KRN104",
                    "bare except hides engine/geometry errors; catch "
                    "specific exceptions"))
    return out
