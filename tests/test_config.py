"""Unit tests for SystemConfig, mechanism selection, the generic
``with_overrides`` builder, and the simulation-axis vocabulary."""

import json

import pytest

from repro.config import (
    ARBITERS,
    MECHANISMS,
    PLACEMENTS,
    PROTOCOL_NAMES,
    TOPOLOGIES,
    InpgConfig,
    NocConfig,
    SystemConfig,
    config_from_dict,
    config_to_dict,
    describe_axes,
)


class TestDefaults:
    def test_table1_defaults(self):
        cfg = SystemConfig()
        assert cfg.num_threads == 64
        assert cfg.noc.width == cfg.noc.height == 8
        assert cfg.noc.router_pipeline_cycles == 2
        assert cfg.noc.data_packet_flits == 8
        assert cfg.noc.ctrl_packet_flits == 1
        assert cfg.cache.block_bytes == 128
        assert cfg.cache.l1_latency == 2
        assert cfg.cache.l2_latency == 6
        assert cfg.inpg.num_big_routers == 32
        assert cfg.inpg.barrier_table_size == 16
        assert cfg.inpg.barrier_ttl == 128
        assert cfg.ocor.retry_times == 128
        assert cfg.ocor.priority_levels == 9
        assert cfg.os.qsl_spin_retries == 128

    def test_both_mechanisms_default_off(self):
        cfg = SystemConfig()
        assert not cfg.inpg.enabled
        assert not cfg.ocor.enabled


class TestMechanismSelection:
    @pytest.mark.parametrize("mech", MECHANISMS)
    def test_roundtrip(self, mech):
        cfg = SystemConfig().with_mechanism(mech)
        assert cfg.inpg.enabled == ("inpg" in mech)
        assert cfg.ocor.enabled == ("ocor" in mech)

    def test_case_insensitive(self):
        cfg = SystemConfig().with_mechanism("iNPG+OCOR")
        assert cfg.inpg.enabled and cfg.ocor.enabled

    def test_unknown_mechanism(self):
        with pytest.raises(ValueError):
            SystemConfig().with_mechanism("magic")

    def test_original_config_unchanged(self):
        base = SystemConfig()
        assert base.with_mechanism("original") == base


class TestWithOverrides:
    def test_section_dict_deep_replaces(self):
        base = SystemConfig()
        derived = base.with_overrides(noc={"width": 4, "height": 4},
                                      num_threads=16)
        assert derived.noc.width == derived.noc.height == 4
        assert derived.num_threads == 16
        # untouched fields survive, and the base is never mutated
        assert derived.noc.router_pipeline_cycles == 2
        assert base.noc.width == 8 and base.num_threads == 64

    def test_section_instance_accepted(self):
        noc = NocConfig(width=2, height=2)
        assert SystemConfig().with_overrides(noc=noc).noc == noc

    def test_unknown_section_field_rejected(self):
        with pytest.raises(TypeError, match="bandwidth"):
            SystemConfig().with_overrides(noc={"bandwidth": 9})

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(TypeError, match="turbo"):
            SystemConfig().with_overrides(turbo=True)

    def test_no_overrides_is_identity(self):
        base = SystemConfig()
        assert base.with_overrides() == base

    def test_with_mechanism_is_with_overrides(self):
        base = SystemConfig()
        for mech in MECHANISMS:
            flags = {"inpg": "inpg" in mech, "ocor": "ocor" in mech}
            assert base.with_mechanism(mech) == base.with_overrides(
                inpg={"enabled": flags["inpg"]},
                ocor={"enabled": flags["ocor"]},
            )

    def test_derived_config_stays_hashable(self):
        # frozen dataclasses are dict keys throughout the executor
        derived = SystemConfig().with_overrides(
            noc={"topology": "torus", "wrr_weights": [3, 1]})
        assert hash(derived) is not None
        assert derived.noc.wrr_weights == (3, 1)  # list normalized


class TestAxisVocabulary:
    def test_axis_tuples(self):
        assert TOPOLOGIES == ("mesh", "torus", "ring")
        assert ARBITERS == ("rr", "wrr")
        assert PLACEMENTS == ("spread", "center", "perimeter")
        # defaults first, by convention
        cfg = SystemConfig()
        assert cfg.noc.topology == TOPOLOGIES[0]
        assert cfg.noc.arbiter == ARBITERS[0]
        assert cfg.inpg.placement == PLACEMENTS[0]
        assert cfg.protocol == PROTOCOL_NAMES[0]

    def test_describe_axes_is_consistent(self):
        axes = describe_axes()
        # the three CLI-reachable axes; big-router placement is
        # config-only
        assert set(axes) == {"protocol", "topology", "arbiter"}
        for name, axis in axes.items():
            assert axis["default"] == axis["choices"][0], name
            section, _, field = axis["config_field"].partition(".")
            cfg = SystemConfig()
            holder = getattr(cfg, section) if field else cfg
            value = getattr(holder, field or section)
            assert value == axis["default"], name

    @pytest.mark.parametrize("field,value", [
        ("topology", "hypercube"),
        ("arbiter", "lottery"),
    ])
    def test_invalid_axis_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            NocConfig(**{field: value})

    def test_invalid_wrr_weights_rejected(self):
        with pytest.raises(ValueError):
            NocConfig(wrr_weights=())
        with pytest.raises(ValueError):
            NocConfig(wrr_weights=(1, 0))

    def test_invalid_placement_rejected(self):
        with pytest.raises(ValueError, match="placement"):
            InpgConfig(placement="edges")


class TestConfigFromDict:
    def test_every_axis_round_trips_through_json(self):
        config = SystemConfig().with_overrides(
            protocol="mesi",
            noc={"flit_level": True, "topology": "torus", "arbiter": "wrr",
                 "wrr_weights": (3, 1)},
            inpg={"placement": "perimeter"},
        )
        wire = json.loads(json.dumps(config_to_dict(config)))
        assert config_from_dict(wire) == config

    @pytest.mark.parametrize("payload", [
        {"noc": {"no_such_field": 1}},
        {"no_such_field": 1},
        {"noc": [8, 8]},
    ], ids=["section-field", "top-level-field", "section-not-mapping"])
    def test_strict(self, payload):
        with pytest.raises(TypeError):
            config_from_dict(payload)


class TestNocConfig:
    def test_node_coordinates(self):
        noc = NocConfig(width=8, height=8)
        assert noc.node_at(5, 6) == 53
        assert noc.coords(53) == (5, 6)
        assert noc.num_nodes == 64

    def test_out_of_range(self):
        noc = NocConfig(width=4, height=4)
        with pytest.raises(ValueError):
            noc.node_at(4, 0)
