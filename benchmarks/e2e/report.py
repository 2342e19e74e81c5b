"""``compare`` two run sets and show where a traced run's time went."""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from .spans import breakdown, read_chrome
from .stats import iqr_frac, load_benchmark, spread

#: share of paired runs a claimed gain must win
CLAIM_WINS = 0.9


def _runs(path: str) -> dict[str, list[dict]]:
    """Untraced runs of a run-set file, by workload."""
    out: dict[str, list[dict]] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        if not run["trace"]:
            out.setdefault(run["workload"], []).append(run)
    return out


def pair_wins(base: dict, new: dict, lower_is_better: bool
              ) -> tuple[int, int]:
    """``(wins, pairs)`` over seeds run on both sides; ties count for
    neither side."""
    seeds = sorted(set(base) & set(new))
    wins = sum((new[s] < base[s]) if lower_is_better else (new[s] > base[s])
               for s in seeds)
    return wins, len(seeds)


def verdict(base: list, new: list, bound: float, lower_is_better: bool,
            wins: int, pairs: int) -> str:
    """better / worse / unchanged / unresolved for one metric.

    Unresolved: the parent's own spread exceeds the bound, unless every
    new run beats every parent run.  Better: the new side wins at least
    9 in 10 pairs and the medians differ by more than the parent's
    interquartile distance.
    """
    sign = 1.0 if lower_is_better else -1.0
    q1, med, q3 = spread(base)
    new_med = spread(new)[1]
    all_better = (max(new) < min(base)) if lower_is_better \
        else (min(new) > max(base))
    if iqr_frac(base) > bound:
        return "better" if all_better else "unresolved"
    worse_by = sign * (new_med - med) / abs(med) if med else 0.0
    if worse_by > bound:
        return "worse"
    if pairs and wins >= CLAIM_WINS * pairs and \
            sign * (med - new_med) > q3 - q1:
        return "better"
    return "unchanged"


def cmd_compare(args) -> int:
    bench = load_benchmark()
    base_runs, new_runs = _runs(args.base), _runs(args.new)
    claims = set(args.claim)
    status = 0
    print(f"{'workload':<17} {'metric':<17} {'base median [q1, q3]':<32} "
          f"{'new median [q1, q3]':<32} {'bound':>5} {'wins':>6}  verdict")
    for workload in base_runs:
        if workload not in new_runs:
            continue
        for d in bench["end_to_end"]:
            name, lower = d["name"], d["better"] == "lower"
            base = {r["seed"]: r["metrics"][name]["value"]
                    for r in base_runs[workload] if name in r["metrics"]}
            new = {r["seed"]: r["metrics"][name]["value"]
                   for r in new_runs[workload] if name in r["metrics"]}
            if not base or not new:
                continue
            wins, pairs = pair_wins(base, new, lower)
            v = verdict(list(base.values()), list(new.values()), d["bound"],
                        lower, wins, pairs)
            sides = [f"{m:.5g} [{q1:.5g}, {q3:.5g}]" for q1, m, q3 in
                     (spread(base.values()), spread(new.values()))]
            print(f"{workload:<17} {name:<17} {sides[0]:<32} {sides[1]:<32} "
                  f"{d['bound']:>5.0%} {wins:>3}/{pairs:<2}  {v}")
            if v in ("worse", "unresolved"):
                status = 1
            claim = f"{workload}:{name}"
            if claim in claims:
                claims.discard(claim)
                met = v == "better"
                print(f"  claim {claim}: {wins}/{pairs} pair wins (needs "
                      f"{CLAIM_WINS:.0%}), {'met' if met else 'not met'}")
                status = status or (0 if met else 1)
    for claim in sorted(claims):
        print(f"  claim {claim}: no such workload/metric in both sets")
        status = 1
    return status


def _layer_of(metric: str, layers) -> str | None:
    best = None
    for layer in layers:
        if metric.startswith(layer + ".") and \
                (best is None or len(layer) > len(best)):
            best = layer
    return best


def cmd_layers(args) -> int:
    """For each traced workload: layers ranked by self time, with their
    share of end-to-end latency and their traced metrics."""
    root = Path(args.dir)
    paths = sorted(root.glob("*.trace.json.gz"))
    if not paths:
        print(f"no traced runs in {root}")
        return 1
    for path in paths:
        workload = path.name[: -len(".trace.json.gz")]
        spans, meta = read_chrome(path)
        ops = breakdown(spans)
        metrics_path = root / f"{workload}.metrics.json"
        record = (json.loads(metrics_path.read_text())
                  if metrics_path.exists() else {"metrics": {},
                                                 "traced_metrics": []})
        total = sum(b.latency_ns for b in ops.values()) or 1
        per_layer: dict[str, list[int]] = {}
        for b in ops.values():
            for layer, ns in b.layer_self_ns.items():
                per_layer.setdefault(layer, []).append(ns)
        uncovered = sum(b.root_self_ns for b in ops.values())
        print(f"\n{workload}: {len(ops)} ops, seed {meta.get('seed')}, "
              f"{total / len(ops) / 1e6 if ops else 0:.2f} ms mean op; "
              f"{uncovered / total:.2%} of op time outside every layer")
        print(f"  {'layer':<17} {'self total s':>12} {'share':>7} "
              f"{'p50 ms/op using it':>19}  traced metrics")
        ranked = sorted(per_layer.items(), key=lambda kv: -sum(kv[1]))
        layer_names = [layer for layer, _ in ranked]
        owned: dict[str, list[str]] = {}
        for name in record["traced_metrics"]:
            layer = _layer_of(name, layer_names)
            if layer is not None:
                m = record["metrics"][name]
                owned.setdefault(layer, []).append(
                    f"{name}={m['value']:.4g}{m['unit']}")
        for layer, selfs in ranked:
            print((f"  {layer:<17} {sum(selfs) / 1e9:>12.4f} "
                   f"{sum(selfs) / total:>7.2%} "
                   f"{statistics.median(selfs) / 1e6:>19.3f}  "
                   + ", ".join(owned.get(layer, []))).rstrip())
        for name in record["traced_metrics"]:
            if name.startswith("trace."):
                m = record["metrics"][name]
                print(f"  {name} = {m['value']:.4g}")
    return 0
