"""Hardening tests for :mod:`repro.serve.mutations`.

The mutation vocabulary is the contract between recorded scenarios,
serve jobs, and :mod:`repro.sessions` streams, so its edge behavior is
pinned down here: empty streams are exact no-ops, drop counts clamp
deterministically (hypothesis-driven), validation errors name the
offending op's index, and the tracked variants' bookkeeping stays
consistent with their output under arbitrary op streams.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphgen import random_graph
from repro.pta.constraints import generate_constraints
from repro.satsp.formula import random_ksat
from repro.serve.mutations import (OPS_BY_ALGORITHM,
                                   apply_clause_mutations_tracked,
                                   apply_constraint_mutations_tracked,
                                   apply_graph_mutations,
                                   apply_graph_mutations_tracked,
                                   apply_point_mutations, check_mutations)

_settings = settings(max_examples=40, deadline=None)


def _graph(seed=3, n=30, m=90):
    return random_graph(n, m, seed=seed)


# --------------------------------------------------------------------- #
# Empty streams are exact no-ops
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("stream", [None, (), []])
def test_check_mutations_empty_stream_is_valid_noop(stream):
    assert check_mutations("mst", stream) == []


def test_empty_stream_leaves_graph_byte_identical():
    n, lo, hi, w = _graph()
    lo2, hi2, w2, eff = apply_graph_mutations_tracked(n, lo, hi, w, [])
    assert np.array_equal(lo, lo2) and np.array_equal(hi, hi2)
    assert np.array_equal(w, w2)
    assert np.array_equal(eff.index_map, np.arange(lo.size))
    assert not eff.changed.any()


def test_zero_and_negative_counts_are_noops():
    n, lo, hi, w = _graph()
    for count in (0, -5):
        ops = [{"op": "add_edges", "count": count, "seed": 1},
               {"op": "drop_edges", "count": count, "seed": 2},
               {"op": "reweight_edges", "count": count, "seed": 3}]
        lo2, hi2, w2 = apply_graph_mutations(n, lo, hi, w, ops)
        assert np.array_equal(lo, lo2) and np.array_equal(hi, hi2)
        assert np.array_equal(w, w2)


# --------------------------------------------------------------------- #
# check_mutations names the offending op index
# --------------------------------------------------------------------- #

def test_unknown_op_error_names_index_and_vocabulary():
    ops = [{"op": "add_edges", "count": 1},
           {"op": "sprinkle_glitter", "count": 1},
           {"op": "drop_edges", "count": 1},
           {"op": "reverse_polarity"}]
    with pytest.raises(ValueError) as exc_info:
        check_mutations("mst", ops)
    msg = str(exc_info.value)
    assert "op[1]='sprinkle_glitter'" in msg
    assert "op[3]='reverse_polarity'" in msg
    assert "op[0]" not in msg and "op[2]" not in msg
    assert "add_edges" in msg                     # vocabulary is listed


def test_non_dict_op_names_index():
    with pytest.raises(ValueError, match=r"op\[1\]"):
        check_mutations("mst", [{"op": "add_edges"}, "drop_edges"])


def test_cross_algorithm_vocabulary_is_rejected():
    with pytest.raises(ValueError, match=r"op\[0\]"):
        check_mutations("sp", [{"op": "add_edges", "count": 1}])
    with pytest.raises(ValueError, match="takes no mutations"):
        check_mutations("not-an-algo", [{"op": "x"}])


def test_vocabulary_table_is_consistent():
    assert set(OPS_BY_ALGORITHM) == {"dmr", "insertion", "sp", "pta",
                                     "mst", "engine"}
    for algo, ops in OPS_BY_ALGORITHM.items():
        assert ops == tuple(dict.fromkeys(ops))   # no duplicates


# --------------------------------------------------------------------- #
# Drop clamping: deterministic, bounded, seed-pure (hypothesis)
# --------------------------------------------------------------------- #

@_settings
@given(count=st.integers(0, 400), seed=st.integers(0, 2**31 - 1))
def test_drop_edges_clamps_and_is_deterministic(count, seed):
    n, lo, hi, w = _graph()
    op = [{"op": "drop_edges", "count": count, "seed": seed}]
    lo1, hi1, w1 = apply_graph_mutations(n, lo, hi, w, op)
    lo2, hi2, w2 = apply_graph_mutations(n, lo, hi, w, op)
    # same seed, same drop — byte-identical across calls
    assert np.array_equal(lo1, lo2) and np.array_equal(hi1, hi2)
    assert np.array_equal(w1, w2)
    # a count beyond the population clamps to "drop everything"
    assert lo1.size == max(0, lo.size - count)


@_settings
@given(count=st.integers(0, 200), seed=st.integers(0, 2**31 - 1))
def test_drop_points_clamps_and_is_deterministic(count, seed):
    rng = np.random.default_rng(9)
    x, y = rng.uniform(0, 1, 60), rng.uniform(0, 1, 60)
    op = [{"op": "drop_points", "count": count, "seed": seed}]
    x1, y1 = apply_point_mutations(x, y, op)
    x2, y2 = apply_point_mutations(x, y, op)
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
    assert x1.size == y1.size == max(0, x.size - count)


@_settings
@given(count=st.integers(0, 300), seed=st.integers(0, 2**31 - 1))
def test_reweight_clamps_to_population(count, seed):
    n, lo, hi, w = _graph()
    op = [{"op": "reweight_edges", "count": count, "seed": seed}]
    lo1, hi1, w1, eff = apply_graph_mutations_tracked(n, lo, hi, w, op)
    assert lo1.size == lo.size                    # never changes shape
    assert int(eff.changed.sum()) == min(count, lo.size)
    assert np.array_equal(w1[~eff.changed], w[~eff.changed])


# --------------------------------------------------------------------- #
# Tracked bookkeeping matches the untracked output (hypothesis)
# --------------------------------------------------------------------- #

_op_strategy = st.lists(
    st.tuples(st.sampled_from(["add_edges", "drop_edges",
                               "reweight_edges"]),
              st.integers(0, 25), st.integers(0, 1000)),
    min_size=1, max_size=5)


@_settings
@given(stream=_op_strategy)
def test_tracked_mutations_match_untracked_and_remap_correctly(stream):
    n, lo, hi, w = _graph()
    ops = [{"op": name, "count": count, "seed": seed}
           for name, count, seed in stream]
    plain = apply_graph_mutations(n, lo, hi, w, ops)
    lo2, hi2, w2, eff = apply_graph_mutations_tracked(n, lo, hi, w, ops)
    # Tracking observes; it must never perturb the RNG draw sequence.
    for a, b in zip(plain, (lo2, hi2, w2)):
        assert np.array_equal(a, b)
    # index_map: every surviving original edge maps to its new row...
    live = eff.index_map >= 0
    src = np.flatnonzero(live)
    dst = eff.index_map[live]
    assert np.array_equal(lo2[dst], lo[src])
    assert np.array_equal(hi2[dst], hi[src])
    # ...and unchanged survivors kept their exact weight.
    keep = ~eff.changed[dst]
    assert np.array_equal(w2[dst[keep]], w[src[keep]])
    assert eff.changed.size == lo2.size


def _clause_rows(cnf):
    return Counter(map(tuple, np.concatenate([cnf.vars, cnf.signs], axis=1)
                       .tolist()))


def _constraint_rows(c):
    return Counter(zip(c.kind.tolist(), c.lhs.tolist(), c.rhs.tolist()))


@_settings
@given(stream=st.lists(st.tuples(st.sampled_from(["add", "drop"]),
                                 st.integers(0, 12), st.integers(0, 1000)),
                       max_size=5))
def test_tracked_row_changes_add_up_to_the_output(stream):
    """Each op reports what it appended and removed: an add reports its
    generator's batch, a drop ``min(count, rows)`` rows of the input
    it saw, and the input's rows plus every op's added rows minus its
    dropped rows are the output's rows."""
    families = (
        (random_ksat(30, 3, ratio=3.0, seed=2), "clauses",
         apply_clause_mutations_tracked, _clause_rows,
         lambda count, seed: random_ksat(30, 3, num_clauses=count,
                                         seed=seed)),
        (generate_constraints(40, 60, seed=2), "constraints",
         apply_constraint_mutations_tracked, _constraint_rows,
         lambda count, seed: generate_constraints(40, count, seed=seed)))
    for base, family, apply, rows, fresh in families:
        ops = [{"op": f"{kind}_{family}", "count": count, "seed": seed}
               for kind, count, seed in stream]
        out, changes = apply(base, ops)
        assert len(changes) == len(ops)
        total = rows(base)
        for op, (added, dropped) in zip(ops, changes):
            size = sum(total.values())
            if op["op"].startswith("add"):
                assert rows(added) == rows(fresh(op["count"], op["seed"]))
                assert not rows(dropped)
            else:
                assert not rows(added)
                assert sum(rows(dropped).values()) == min(op["count"], size)
            total = total + rows(added)
            total.subtract(rows(dropped))
            assert min(total.values(), default=0) >= 0
        assert +total == rows(out)
