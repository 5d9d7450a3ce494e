"""Tests for the declarative run-plan execution engine (repro.exec)."""

import json

import pytest

from repro.config import NocConfig, SystemConfig
from repro.exec import Executor, ResultCache, RunSpec
from repro.exec.cache import NullCache
from repro.stats.serialize import RESULT_SCHEMA_VERSION, result_fingerprint


def small_config(**kwargs) -> SystemConfig:
    return SystemConfig(noc=NocConfig(width=4, height=4), num_threads=16,
                        **kwargs)


def small_spec(**kwargs) -> RunSpec:
    defaults = dict(benchmark="vips", mechanism="original",
                    primitive="mcs", scale=0.3, config=small_config())
    defaults.update(kwargs)
    return RunSpec(**defaults)


class TestFingerprint:
    def test_stable_across_instances(self):
        assert small_spec().fingerprint == small_spec().fingerprint

    def test_default_config_and_explicit_default_coincide(self):
        a = RunSpec(benchmark="vips", mechanism="inpg")
        b = RunSpec(benchmark="vips", mechanism="inpg",
                    config=SystemConfig())
        assert a.fingerprint == b.fingerprint

    def test_mechanism_resolves_into_config(self):
        # "inpg" as a mechanism string vs pre-baked config flags:
        # same effective run, same content address
        a = RunSpec(benchmark="vips", mechanism="inpg")
        b = RunSpec(benchmark="vips", mechanism=None,
                    config=SystemConfig().with_mechanism("inpg"))
        assert a.fingerprint == b.fingerprint

    @pytest.mark.parametrize("change", [
        {"benchmark": "dedup"},
        {"mechanism": "inpg"},
        {"primitive": "qsl"},
        {"scale": 0.5},
        {"seed": 7},
        {"max_cycles": 1_000_000},
        {"config": small_config(seed=99)},
    ])
    def test_each_field_changes_fingerprint(self, change):
        assert small_spec(**change).fingerprint != small_spec().fingerprint

    def test_lock_homes_is_part_of_the_key(self):
        # a sweep over lock placement must never hit a stale entry for a
        # different placement
        default = small_spec()
        pinned = small_spec(lock_homes=(5,))
        other = small_spec(lock_homes=(9,))
        prints = {default.fingerprint, pinned.fingerprint, other.fingerprint}
        assert len(prints) == 3

    def test_lock_homes_sequence_type_is_normalized(self):
        assert (small_spec(lock_homes=[5, 9]).fingerprint ==
                small_spec(lock_homes=(5, 9)).fingerprint)

    def test_microbench_defaults_resolve(self):
        implicit = RunSpec.microbench(config=small_config())
        explicit = RunSpec.microbench(
            cs_per_thread=4, cs_cycles=100, parallel_cycles=200,
            config=small_config(),
        )
        assert implicit.fingerprint == explicit.fingerprint
        varied = RunSpec.microbench(cs_cycles=60, config=small_config())
        assert varied.fingerprint != implicit.fingerprint


class TestAxisFingerprints:
    """Every simulation axis follows one fingerprint convention: the
    default value is elided (legacy cache keys stay valid), every
    non-default value addresses itself and shows in the label."""

    BASELINE = RunSpec(benchmark="vips", mechanism="original")

    # (axis, default value, each non-default value), spelled out here
    # rather than read from repro.config.AXES so that a row dropped from
    # the table fails
    SPEC_AXES = [
        ("protocol", "moesi", ("msi", "mesi")),
        ("topology", "mesh", ("torus", "ring")),
        ("arbiter", "rr", ("wrr",)),
        ("placement", "spread", ("center", "perimeter")),
    ]
    #: the config section holding each axis (None: top level)
    SECTIONS = {"protocol": None, "topology": "noc", "arbiter": "noc",
                "placement": "inpg"}

    @classmethod
    def spec(cls, axis, value):
        section = cls.SECTIONS[axis]
        overrides = {section: {axis: value}} if section else {axis: value}
        return RunSpec(benchmark="vips", mechanism="original",
                       config=SystemConfig().with_overrides(**overrides))

    @pytest.mark.parametrize("field,default,_", SPEC_AXES,
                             ids=lambda v: str(v))
    def test_explicit_default_never_changes_fingerprint(
            self, field, default, _):
        spec = self.spec(field, default)
        assert spec.fingerprint == self.BASELINE.fingerprint
        config = spec.canonical_payload()["config"]
        section = self.SECTIONS[field]
        assert field not in (config[section] if section else config)
        assert f"{field}=" not in spec.label()

    @pytest.mark.parametrize("field,default,values", SPEC_AXES,
                             ids=lambda v: str(v))
    def test_each_non_default_value_addresses_itself(
            self, field, default, values):
        prints = {self.BASELINE.fingerprint}
        for value in values:
            spec = self.spec(field, value)
            prints.add(spec.fingerprint)
            assert f"{field}={value}" in spec.label()
        assert len(prints) == 1 + len(values)

    def test_flit_level_spec_keeps_its_address(self):
        """Flit-level specs keep the addresses they had while
        ``NocConfig.shards`` and ``NocConfig.flit_engine`` existed and
        their defaults were elided."""
        spec = RunSpec(
            benchmark="bwaves",
            config=SystemConfig(noc=NocConfig(flit_level=True)),
        )
        assert spec.fingerprint == (
            "bdd1e7eac225756b1179a0571a48e769ecde7859a151b5b4872bef1e8a999028"
        )
        assert "shards" not in spec.canonical_payload()["config"]["noc"]

    def test_placement_axis_same_convention(self):
        inpg = RunSpec(benchmark="vips", mechanism="inpg")
        spread = RunSpec(
            benchmark="vips", mechanism="inpg",
            config=SystemConfig().with_overrides(
                inpg={"enabled": True, "placement": "spread"}))
        center = RunSpec(
            benchmark="vips", mechanism="inpg",
            config=SystemConfig().with_overrides(
                inpg={"enabled": True, "placement": "center"}))
        assert spread.fingerprint == inpg.fingerprint
        assert center.fingerprint != inpg.fingerprint

    def test_wrr_weights_inert_under_default_arbiter(self):
        # weights only matter once the WRR arbiter reads them
        weighted = RunSpec(
            benchmark="vips", mechanism="original",
            config=SystemConfig().with_overrides(
                noc={"wrr_weights": (7, 3)}))
        assert weighted.fingerprint == self.BASELINE.fingerprint
        wrr_a = self.spec("arbiter", "wrr")
        wrr_b = RunSpec(
            benchmark="vips", mechanism="original",
            config=SystemConfig().with_overrides(
                noc={"arbiter": "wrr", "wrr_weights": (7, 3)}))
        assert wrr_b.fingerprint != wrr_a.fingerprint

    def test_legacy_payload_shape_is_stable(self):
        """The canonical payload of a default spec carries none of the
        axis keys — byte-for-byte the pre-axis cache address."""
        payload = self.BASELINE.canonical_payload()
        noc = payload["config"]["noc"]
        for key in ("topology", "arbiter", "wrr_weights", "flit_engine"):
            assert key not in noc, key
        assert "placement" not in payload["config"]["inpg"]
        assert "protocol" not in payload["config"]

    def test_axis_specs_roundtrip_to_dict(self):
        spec = RunSpec(
            benchmark="vips", mechanism="original",
            config=SystemConfig().with_overrides(
                noc={"topology": "torus", "arbiter": "wrr"}))
        clone = RunSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.fingerprint == spec.fingerprint


class TestExecutor:
    def test_plan_dedups_identical_specs(self, tmp_path):
        ex = Executor(jobs=1, cache_dir=tmp_path)
        results = ex.run([small_spec(), small_spec()])
        assert ex.stats.executed == 1
        assert ex.stats.memory_hits == 1
        assert len(results) == 1  # same spec, one mapping entry

    def test_memory_hits_across_plans(self, tmp_path):
        ex = Executor(jobs=1, cache_dir=tmp_path)
        first = ex.run_one(small_spec())
        second = ex.run_one(small_spec())
        assert second is first
        assert ex.stats.executed == 1
        assert ex.stats.memory_hits == 1

    def test_disk_cache_survives_executor_instances(self, tmp_path):
        spec = small_spec()
        ex1 = Executor(jobs=1, cache_dir=tmp_path)
        r1 = ex1.run_one(spec)
        assert ex1.stats.executed == 1
        # fresh executor, same directory: zero simulations executed
        ex2 = Executor(jobs=1, cache_dir=tmp_path)
        r2 = ex2.run_one(spec)
        assert ex2.stats.executed == 0
        assert ex2.stats.disk_hits == 1
        assert r2.roi_cycles == r1.roi_cycles
        assert r2.summary() == r1.summary()
        assert r2.timeline.intervals == r1.timeline.intervals

    def test_clear_memory_keeps_disk(self, tmp_path):
        spec = small_spec()
        ex = Executor(jobs=1, cache_dir=tmp_path)
        ex.run_one(spec)
        ex.clear_memory()
        ex.run_one(spec)
        assert ex.stats.executed == 1
        assert ex.stats.disk_hits == 1

    def test_no_cache_writes_nothing(self, tmp_path):
        ex = Executor(jobs=1, use_cache=False)
        assert isinstance(ex.cache, NullCache)
        ex.run_one(small_spec())
        assert ex.stats.executed == 1
        assert list(tmp_path.iterdir()) == []

    def test_stats_record_observability(self, tmp_path):
        ex = Executor(jobs=1, cache_dir=tmp_path)
        result = ex.run_one(small_spec())
        [record] = ex.stats.records
        assert record.sim_cycles == result.roi_cycles
        assert record.sim_events > 0
        assert record.wall_time > 0
        footer = ex.stats.render_footer(jobs=1, cache_dir=str(tmp_path))
        assert "executed: 1" in footer
        assert "hit rate: 0.0%" in footer

    def test_run_one_runs_each_lock_placement(self, tmp_path):
        # lock placement threads all the way through the generator call
        ex = Executor(jobs=1, cache_dir=tmp_path)
        pinned = ex.run_one(small_spec(lock_homes=(3,)))
        default = ex.run_one(small_spec())
        # both simulated: different placements are different runs
        assert ex.stats.executed == 2
        assert pinned is not default


class TestDiskCacheInvalidation:
    def test_schema_bump_invalidates_entry(self, tmp_path):
        spec = small_spec()
        ex1 = Executor(jobs=1, cache_dir=tmp_path)
        r1 = ex1.run_one(spec)
        # simulate an entry written by an older serialization schema
        [entry_path] = tmp_path.glob("*.json")
        entry = json.loads(entry_path.read_text())
        assert entry["schema"] == RESULT_SCHEMA_VERSION
        entry["schema"] = RESULT_SCHEMA_VERSION - 1
        entry_path.write_text(json.dumps(entry))
        ex2 = Executor(jobs=1, cache_dir=tmp_path)
        r2 = ex2.run_one(spec)
        # the stale entry was ignored (not mis-read): a real re-run
        assert ex2.stats.disk_hits == 0
        assert ex2.stats.executed == 1
        assert r2.roi_cycles == r1.roi_cycles
        # and the fresh run healed the entry back to the current schema
        entry = json.loads(entry_path.read_text())
        assert entry["schema"] == RESULT_SCHEMA_VERSION

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        """An entry that does not parse, or that holds a malformed
        record or timeline table, is a miss when it is loaded: the spec
        re-runs, and reading the result raises nothing later."""
        # contended enough to record invalidations
        spec = small_spec(benchmark="kdtree", primitive="tas")
        fresh = Executor(jobs=1, cache_dir=tmp_path).run_one(spec)
        [entry_path] = tmp_path.glob("*.json")
        good = json.loads(entry_path.read_text())

        def edited(edit, *path):
            """The entry with the table at ``path`` (a list of columns)
            passed through ``edit``."""
            entry = json.loads(json.dumps(good))
            table = entry["result"]
            for key in path:
                table = table[key]
            assert table[0], f"the spec records no {path[-1]}"
            edit(table)
            return json.dumps(entry)

        def shorten_first(columns):
            columns[0].pop()

        def add_column(columns):
            columns.append(list(columns[0]))

        def second_to_object(columns):
            # as long as the others, but not a list
            columns[1] = {str(i): v for i, v in enumerate(columns[1])}

        corrupt = {
            "not json": "{not json",
            "short invalidation column": edited(
                shorten_first, "coherence", "inv_records"),
            "short lock transaction column": edited(
                shorten_first, "coherence", "lock_txns"),
            "short timeline column": edited(
                shorten_first, "timeline", "intervals"),
            "missing thread column": edited(list.pop, "threads"),
            "extra lock transaction column": edited(
                add_column, "coherence", "lock_txns"),
            "invalidation column not a list": edited(
                second_to_object, "coherence", "inv_records"),
        }
        for what, text in corrupt.items():
            entry_path.write_text(text)
            ex = Executor(jobs=1, cache_dir=tmp_path)
            result = ex.run_one(spec)
            assert ex.stats.executed == 1, what
            assert result_fingerprint(result) == result_fingerprint(fresh), what

    def test_cache_len_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        Executor(jobs=1, cache=cache).run_one(small_spec())
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0
