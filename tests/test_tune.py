"""Tests for the strategy-space autotuner (repro.tune).

Covers the declarative config spaces, the three search engines and
their determinism, the persistent tuning cache (round-trip, atomicity
under an injected mid-write kill, corrupt-file quarantine), the
``strategy="auto"`` resolution path every serve adapter funnels
through, the SJF proxy's cache consultation, and the CLI.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.counters import OpCounter
from repro.serve import JobSpec, estimate_cost, order_jobs, run_job
from repro.serve.jobs import JobContext, get_adapter
from repro.tune import (AUTO_SEED, ENGINES, TUNE_SCHEMA, ConfigSpace,
                        TuneRecord, TuningCache, config_key,
                        default_cache_path, fingerprint_params,
                        known_spaces, proxy_params, resolve_strategy,
                        score_config, space_for, tune)
from repro.tune.__main__ import main as tune_main
from repro.vgpu.costmodel import COST_MODEL_VERSION, CostModel
from repro.vgpu.faults import FaultInjected, FaultRule, FaultRules


def _record(algorithm="mst", fingerprint="f" * 16, config=None,
            modeled=1e-3, **kw) -> TuneRecord:
    return TuneRecord(algorithm=algorithm, fingerprint=fingerprint,
                      config=config or {"barrier": "fence"},
                      modeled_gpu_s=modeled, **kw)


# --------------------------------------------------------------------- #
class TestConfigSpace:
    def test_every_algorithm_has_a_space(self):
        from repro.serve import known_algorithms
        assert known_spaces() == known_algorithms()

    def test_defaults_are_legal_members(self):
        for algo in known_spaces():
            space = space_for(algo)
            space.validate(space.default)   # must not raise
            keys = {config_key(c) for c in space.configs()}
            assert config_key(space.canonical(space.default)) in keys

    def test_configs_enumeration_is_deterministic(self):
        space = space_for("dmr")
        a = [config_key(c) for c in space.configs()]
        b = [config_key(c) for c in space.configs()]
        assert a == b
        assert len(a) == len(set(a))        # no duplicates

    def test_constraint_prunes_unsafe_dmr_variant(self):
        space = space_for("dmr")
        assert space.size() < space.grid_size()
        bad = dict(space.default)
        bad["conflict"] = "2phase-unsafe"
        assert not space.is_legal(bad)
        with pytest.raises(ValueError, match="race"):
            space.validate(bad)
        assert not any(c["conflict"] == "2phase-unsafe"
                       for c in space.configs())

    def test_validate_rejects_missing_axis_and_off_grid_value(self):
        space = space_for("sp")
        with pytest.raises(ValueError, match="missing axis"):
            space.validate({"cached": True})
        with pytest.raises(ValueError, match="not in grid"):
            space.validate({"cached": True, "damping": 0.33})

    def test_check_strategy_lists_offenders_and_accepted_keys(self):
        space = space_for("dmr")
        with pytest.raises(ValueError) as ei:
            space.check_strategy({"barrier": "fence", "bogus": 1,
                                  "wrong": 2})
        msg = str(ei.value)
        assert "'bogus'" in msg and "'wrong'" in msg
        assert "accepted:" in msg and "barrier" in msg
        # partial dicts and the tuned meta-key are fine
        space.check_strategy({"barrier": "fence", "tuned": True})
        space.check_strategy({})

    def test_canonical_is_sorted_and_json_clean(self):
        space = space_for("pta")
        cfg = space.canonical({"chunk_size": 512, "variant": "push"})
        assert list(cfg) == sorted(cfg)
        assert json.loads(config_key(cfg)) == cfg

    def test_unknown_algorithm_raises(self):
        with pytest.raises(KeyError, match="no strategy space"):
            space_for("quicksort")

    def test_axis_lookup(self):
        space = space_for("mst")
        assert space.axis("barrier").paper_ref == "§7.3"
        with pytest.raises(KeyError):
            space.axis("nope")

    def test_empty_axis_rejected(self):
        from repro.tune import Axis
        with pytest.raises(ValueError, match="no choices"):
            Axis("dead", ())

    def test_custom_space_constraint_plumbing(self):
        from repro.tune import Axis
        space = ConfigSpace(
            algorithm="toy",
            axes=(Axis("a", (1, 2)), Axis("b", (1, 2))),
            constraints=((lambda c: (c["a"] <= c["b"], "a>b")),),
            default={"a": 1, "b": 1})
        assert space.grid_size() == 4 and space.size() == 3
        with pytest.raises(ValueError, match="a>b"):
            space.validate({"a": 2, "b": 1})


# --------------------------------------------------------------------- #
class TestProxyAndScoring:
    def test_proxy_params_scale_and_floor(self):
        p = proxy_params("dmr", {"n_triangles": 600}, 0.5)
        assert p["n_triangles"] == 300
        p = proxy_params("dmr", {"n_triangles": 600}, 0.01)
        assert p["n_triangles"] == 40          # _MIN_SIZE floor
        p = proxy_params("pta", {}, 0.5)
        assert p["num_vars"] == 60 and p["num_constraints"] == 100

    def test_proxy_params_default_edges_follow_the_adapters(self):
        # An absent num_edges is four (mst) or three (engine) per node,
        # as the adapters build the graph, not a fixed count.
        p = proxy_params("mst", {"num_nodes": 20000}, 1.0)
        assert p["num_edges"] == 80000
        p = proxy_params("engine", {"num_nodes": 100}, 0.5)
        assert p == {"num_nodes": 50, "num_edges": 150}

    @pytest.mark.parametrize("algorithm,params", [
        ("dmr", {"n_triangles": 80}), ("insertion", {"n_triangles": 80}),
        ("sp", {"num_vars": 40}), ("pta", {"num_vars": 60}),
        ("mst", {"num_nodes": 60}), ("engine", {"num_nodes": 40})])
    def test_full_scale_proxy_prices_the_adapters_own_input(self, algorithm,
                                                           params):
        """At scale 1 a trial runs on the input the job itself builds."""
        cfg = space_for(algorithm).default
        ctx = JobContext(counter=OpCounter())
        get_adapter(algorithm)(params, cfg, 2, ctx)
        trial = score_config(algorithm, params, cfg, seed=2)
        assert trial.modeled_gpu_s == CostModel().gpu_time(ctx.counter)

    def test_proxy_params_leave_non_size_keys_alone(self):
        p = proxy_params("sp", {"num_vars": 200, "ratio": 3.2}, 0.25)
        assert p["ratio"] == 3.2 and p["num_vars"] == 50

    def test_score_config_prices_the_real_driver(self):
        space = space_for("mst")
        t = score_config("mst", {"num_nodes": 80, "num_edges": 240},
                         space.default, seed=1)
        assert t.scale == 1.0 and t.modeled_gpu_s > 0
        # barrier choice must move the modeled price, not the result
        t2 = score_config("mst", {"num_nodes": 80, "num_edges": 240},
                          {"barrier": "naive"}, seed=1)
        assert t2.modeled_gpu_s != t.modeled_gpu_s

    def test_score_config_emits_tracer_spans(self):
        from repro.obs import Tracer, chrome_trace, validate_chrome_trace
        tracer = Tracer()
        trials = [score_config("mst", {"num_nodes": 60, "num_edges": 180},
                               {"barrier": barrier}, seed=0, tracer=tracer)
                  for barrier in ("fence", "naive")]
        spans = [e for e in tracer.events if e.name == "tune.trial"]
        assert len(spans) == 2
        # The tracer prices each trial's counter inside its span.
        for span, trial in zip(spans, trials):
            assert span.args["modeled_gpu_s"] == trial.modeled_gpu_s
            assert span.dur == pytest.approx(trial.modeled_gpu_s * 1e6,
                                             rel=1e-9)
        validate_chrome_trace(chrome_trace(tracer))


# --------------------------------------------------------------------- #
class TestEngines:
    PARAMS = {"num_nodes": 80, "num_edges": 240}

    def test_exhaustive_covers_the_legal_space(self):
        res = tune("mst", self.PARAMS, budget=16, engine="exhaustive")
        assert len(res.trials) == space_for("mst").size()

    def test_auto_engine_selection(self):
        small = tune("mst", self.PARAMS, budget=16)
        assert small.engine == "exhaustive"
        big = tune("dmr", {"n_triangles": 60}, budget=4, seed=3)
        assert big.engine == "halving"

    def test_halving_keeps_default_and_respects_scales(self):
        res = tune("dmr", {"n_triangles": 60}, budget=4, seed=3,
                   engine="halving")
        scales = {t.scale for t in res.trials}
        assert scales == {0.25, 0.5, 1.0}
        default = space_for("dmr").canonical(space_for("dmr").default)
        assert any(config_key(t.config) == config_key(default)
                   for t in res.trials if t.scale == 0.25)

    def test_coordinate_descent_starts_from_default(self):
        res = tune("mst", self.PARAMS, budget=8, engine="coordinate")
        default = space_for("mst").canonical(space_for("mst").default)
        assert config_key(res.trials[0].config) == config_key(default)
        assert all(t.scale == 1.0 for t in res.trials)

    def test_same_seed_same_trials(self):
        a = tune("dmr", {"n_triangles": 60}, budget=4, seed=7,
                 engine="halving")
        b = tune("dmr", {"n_triangles": 60}, budget=4, seed=7,
                 engine="halving")
        assert [(config_key(t.config), t.scale, t.modeled_gpu_s)
                for t in a.trials] == \
               [(config_key(t.config), t.scale, t.modeled_gpu_s)
                for t in b.trials]
        assert a.best.to_dict() == b.best.to_dict()

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_tuned_never_worse_than_default(self, engine):
        budget = 4 if engine != "exhaustive" else 16
        res = tune("mst", self.PARAMS, budget=budget, engine=engine,
                   seed=1)
        default = space_for("mst").canonical(space_for("mst").default)
        base = score_config("mst", self.PARAMS, default, seed=1)
        assert res.best.modeled_gpu_s <= base.modeled_gpu_s + 1e-12

    def test_unknown_engine_raises(self):
        with pytest.raises(ValueError, match="unknown engine"):
            tune("mst", self.PARAMS, engine="simulated-annealing")

    def test_ranked_table_mentions_every_full_trial(self):
        res = tune("mst", self.PARAMS, budget=16, engine="exhaustive")
        table = res.table()
        assert len(res.ranked()) == len(res.trials)
        assert table.count("ms") >= len(res.trials)

    def test_tune_uses_and_fills_cache(self, tmp_path):
        cache = TuningCache(tmp_path / "t.json")
        cold = tune("mst", self.PARAMS, budget=16, cache=cache)
        assert not cold.cache_hit and cache.path.exists()
        warm = tune("mst", self.PARAMS, budget=16, cache=cache)
        assert warm.cache_hit and warm.trials == []
        assert warm.best.to_dict() == cold.best.to_dict()
        forced = tune("mst", self.PARAMS, budget=16, cache=cache,
                      force=True)
        assert not forced.cache_hit

    def test_same_seed_runs_write_byte_identical_caches(self, tmp_path):
        files = []
        for name in ("a.json", "b.json"):
            cache = TuningCache(tmp_path / name)
            tune("mst", self.PARAMS, budget=16, seed=5, cache=cache)
            files.append(cache.path.read_bytes())
        assert files[0] == files[1]


# --------------------------------------------------------------------- #
class TestTuningCache:
    def test_round_trip(self, tmp_path):
        cache = TuningCache(tmp_path / "t.json")
        rec = _record(engine="halving", budget=8, seed=3, trials=11)
        cache.put(rec)
        got = cache.get("mst", "f" * 16)
        assert got == rec
        doc = json.loads(cache.path.read_text())
        assert doc["schema"] == TUNE_SCHEMA

    def test_miss_on_cost_model_version_change(self, tmp_path):
        cache = TuningCache(tmp_path / "t.json")
        cache.put(_record(cost_model_version=COST_MODEL_VERSION + 1))
        assert cache.get("mst", "f" * 16) is None
        assert cache.get("mst", "f" * 16,
                         version=COST_MODEL_VERSION + 1) is not None

    def test_corrupt_file_is_quarantined_not_deleted(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text("{ this is not json")
        cache = TuningCache(path)
        assert cache.load() == {}
        corrupt = tmp_path / "t.json.corrupt"
        assert corrupt.exists() and not path.exists()
        assert corrupt.read_text() == "{ this is not json"
        # the cache continues from empty and is fully usable
        cache.put(_record())
        assert cache.get("mst", "f" * 16) is not None

    def test_wrong_schema_is_corrupt(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"schema": "repro.tune/99",
                                    "entries": {}}))
        assert TuningCache(path).load() == {}
        assert (tmp_path / "t.json.corrupt").exists()

    def test_save_is_deterministic_bytes(self, tmp_path):
        recs = {r.key: r for r in (_record(fingerprint="a" * 16),
                                   _record(fingerprint="b" * 16))}
        p1, p2 = TuningCache(tmp_path / "1.json"), \
            TuningCache(tmp_path / "2.json")
        p1.save(recs)
        p2.save(dict(reversed(list(recs.items()))))   # insertion order differs
        assert p1.path.read_bytes() == p2.path.read_bytes()

    def test_default_path_honors_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "env.json"))
        assert default_cache_path() == tmp_path / "env.json"
        monkeypatch.delenv("REPRO_TUNE_CACHE")
        assert default_cache_path().name == "tune.json"

    def test_kill_between_write_and_publish_is_atomic(self, tmp_path):
        cache = TuningCache(tmp_path / "t.json")
        first = _record(fingerprint="a" * 16)
        cache.put(first)
        before = cache.path.read_bytes()
        inj = FaultRules.of(FaultRule("replace_crash", at=(1,))).injector()
        with inj.activate():
            with pytest.raises(FaultInjected):
                cache.put(_record(fingerprint="b" * 16))
        assert inj.fired["replace_crash"] == 1
        # the published file is exactly the pre-kill cache
        assert cache.path.read_bytes() == before
        assert set(cache.load()) == {first.key}
        # and the cache keeps working once the fault clears
        cache.put(_record(fingerprint="b" * 16))
        assert len(cache.load()) == 2


# --------------------------------------------------------------------- #
def _space_configs(algo):
    return list(space_for(algo).configs())


@st.composite
def tune_records(draw):
    algo = draw(st.sampled_from(known_spaces()))
    configs = _space_configs(algo)
    config = configs[draw(st.integers(0, len(configs) - 1))]
    return TuneRecord(
        algorithm=algo,
        fingerprint=draw(st.text("0123456789abcdef", min_size=16,
                                 max_size=16)),
        config=space_for(algo).canonical(config),
        modeled_gpu_s=draw(st.floats(min_value=0.0, max_value=1e6,
                                     allow_nan=False)),
        engine=draw(st.sampled_from(sorted(ENGINES))),
        budget=draw(st.integers(0, 64)),
        seed=draw(st.integers(0, 2**31 - 1)),
        trials=draw(st.integers(0, 128)))


class TestCacheProperties:
    @settings(max_examples=40, deadline=None)
    @given(recs=st.lists(tune_records(), max_size=5))
    def test_round_trip_arbitrary_valid_records(self, tmp_path_factory,
                                                recs):
        cache = TuningCache(
            tmp_path_factory.mktemp("tune") / "t.json")
        entries = {r.key: r for r in recs}
        cache.save(entries)
        loaded = cache.load()
        assert loaded == entries
        for r in entries.values():
            assert cache.get(r.algorithm, r.fingerprint,
                             version=r.cost_model_version) == r

    @settings(max_examples=25, deadline=None)
    @given(prior=st.lists(tune_records(), max_size=3, unique_by=lambda r:
                          r.key),
           incoming=tune_records())
    def test_mid_write_kill_never_corrupts(self, tmp_path_factory, prior,
                                           incoming):
        cache = TuningCache(tmp_path_factory.mktemp("tune") / "t.json")
        entries = {r.key: r for r in prior}
        if entries:
            cache.save(entries)
        before = cache.path.read_bytes() if entries else None
        crash = FaultRules.of(FaultRule("replace_crash", at=(1,)))
        with crash.injector().activate():
            with pytest.raises(FaultInjected):
                cache.put(incoming)
        if entries:
            assert cache.path.read_bytes() == before
        assert cache.load() == entries       # quarantine never triggered
        cache.put(incoming)                  # and the cache still works
        assert cache.get(incoming.algorithm, incoming.fingerprint,
                         version=incoming.cost_model_version) == incoming


# --------------------------------------------------------------------- #
class TestResolveStrategy:
    def test_plain_dict_passes_through_minus_meta(self):
        out = resolve_strategy("mst", {}, {"barrier": "naive"})
        assert out == {"barrier": "naive"}

    def test_unknown_key_raises(self):
        with pytest.raises(ValueError, match="unknown keys: 'bogus'"):
            resolve_strategy("mst", {}, {"bogus": 1})

    def test_non_mapping_non_auto_raises(self):
        with pytest.raises(ValueError, match="must be a dict"):
            resolve_strategy("mst", {}, "fastest-please")

    def test_auto_consults_cache(self, tmp_path):
        params = {"num_nodes": 64, "num_edges": 128}
        cache = TuningCache(tmp_path / "t.json")
        cache.put(TuneRecord(
            algorithm="mst",
            fingerprint=fingerprint_params("mst", params),
            config={"barrier": "naive"}, modeled_gpu_s=1e-3))
        out = resolve_strategy("mst", params, "auto", cache=cache)
        assert out == {"barrier": "naive"}

    def test_auto_tunes_on_miss_and_persists(self, tmp_path):
        params = {"num_nodes": 64, "num_edges": 128}
        cache = TuningCache(tmp_path / "t.json")
        out = resolve_strategy("mst", params, "auto", cache=cache)
        space_for("mst").validate(out)
        rec = cache.get("mst", fingerprint_params("mst", params))
        assert rec is not None and rec.config == out
        assert rec.seed == AUTO_SEED

    def test_tuned_true_applies_overrides(self, tmp_path):
        params = {"num_nodes": 64, "num_edges": 128}
        cache = TuningCache(tmp_path / "t.json")
        cache.put(TuneRecord(
            algorithm="mst",
            fingerprint=fingerprint_params("mst", params),
            config={"barrier": "fence"}, modeled_gpu_s=1e-3))
        out = resolve_strategy("mst", params,
                               {"tuned": True, "barrier": "naive"},
                               cache=cache)
        assert out == {"barrier": "naive"}

    def test_tuned_true_with_bad_override_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown keys"):
            resolve_strategy("mst", {}, {"tuned": True, "vroom": 9},
                             cache=TuningCache(tmp_path / "t.json"))


# --------------------------------------------------------------------- #
class TestServeIntegration:
    def test_auto_job_runs_and_matches_explicit_config(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "t.json"))
        params = {"num_nodes": 64, "num_edges": 128}
        auto = run_job(JobSpec(name="auto", algorithm="mst",
                               params=params, strategy="auto", seed=4))
        assert auto.ok
        rec = TuningCache(tmp_path / "t.json").get(
            "mst", fingerprint_params("mst", params))
        explicit = run_job(JobSpec(name="explicit", algorithm="mst",
                                   params=params, strategy=rec.config,
                                   seed=4))
        assert auto.result.digest == explicit.result.digest

    def test_unknown_strategy_key_fails_the_job(self):
        rec = run_job(JobSpec(name="bad", algorithm="mst",
                              strategy={"bogus": 1}, retries=0))
        assert not rec.ok
        assert "unknown keys: 'bogus'" in rec.failures[0]

    def test_jobspec_round_trips_string_strategy(self):
        spec = JobSpec(name="j", algorithm="mst", strategy="auto")
        again = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again.strategy == "auto"

    def test_estimate_cost_prefers_measured_over_static(self, tmp_path):
        spec = JobSpec(name="j", algorithm="mst",
                       params={"num_nodes": 64, "num_edges": 128})
        static = estimate_cost(spec)
        cache = TuningCache(tmp_path / "t.json")
        assert estimate_cost(spec, cache) == static   # miss: unchanged
        cache.put(TuneRecord(
            algorithm="mst",
            fingerprint=fingerprint_params("mst", spec.params),
            config={"barrier": "fence"}, modeled_gpu_s=0.25))
        assert estimate_cost(spec, cache) == pytest.approx(0.25e6)

    def test_sjf_reorders_when_cache_contradicts_static_proxy(self,
                                                              tmp_path):
        small = JobSpec(name="small", algorithm="mst",
                        params={"num_nodes": 50, "num_edges": 100})
        big = JobSpec(name="big", algorithm="mst",
                      params={"num_nodes": 500, "num_edges": 2000})
        assert [s.name for s in order_jobs([big, small], "sjf")] == \
            ["small", "big"]
        cache = TuningCache(tmp_path / "t.json")
        # measured truth: "small" is actually the expensive one
        cache.put(TuneRecord(
            algorithm="mst",
            fingerprint=fingerprint_params("mst", small.params),
            config={"barrier": "fence"}, modeled_gpu_s=10.0))
        cache.put(TuneRecord(
            algorithm="mst",
            fingerprint=fingerprint_params("mst", big.params),
            config={"barrier": "fence"}, modeled_gpu_s=0.001))
        assert [s.name for s in
                order_jobs([big, small], "sjf", tune_cache=cache)] == \
            ["big", "small"]


# --------------------------------------------------------------------- #
class TestCLI:
    ARGS = ["--algo", "mst", "--params",
            '{"num_nodes": 64, "num_edges": 128}', "--budget", "8"]

    def test_tune_then_expect_hit(self, tmp_path, capsys):
        cache = str(tmp_path / "t.json")
        assert tune_main([*self.ARGS, "--cache", cache]) == 0
        out = capsys.readouterr().out
        assert "best config" in out and "modeled GPU time" in out
        assert tune_main([*self.ARGS, "--cache", cache,
                          "--expect-hit"]) == 0
        assert "cache hit" in capsys.readouterr().out

    def test_expect_hit_fails_on_cold_cache(self, tmp_path, capsys):
        assert tune_main([*self.ARGS, "--cache",
                          str(tmp_path / "cold.json"),
                          "--expect-hit"]) == 1
        assert "expected a cache hit" in capsys.readouterr().out

    def test_trace_export(self, tmp_path):
        trace = tmp_path / "trace.json"
        assert tune_main([*self.ARGS, "--cache",
                          str(tmp_path / "t.json"),
                          "--trace", str(trace)]) == 0
        events = json.loads(trace.read_text())["traceEvents"]
        assert any(e.get("name") == "tune.trial" for e in events)
