"""Tests for synthetic traffic patterns and the load-latency harness."""

import pytest

from repro.config import NocConfig
from repro.noc.topology import Mesh
from repro.noc.traffic import (
    PATTERNS,
    bit_complement,
    hotspot,
    latency_load_curve,
    run_packet_traffic,
    transpose,
    uniform_random,
)
from repro.sim import make_rng


class TestPatterns:
    def test_uniform_never_self(self):
        mesh = Mesh(4, 4)
        rng = make_rng(1, "t")
        for src in range(16):
            for _ in range(20):
                assert uniform_random(mesh, src, rng) != src

    def test_transpose_is_involution(self):
        mesh = Mesh(8, 8)
        for src in range(64):
            dst = transpose(mesh, src, None)
            assert transpose(mesh, dst, None) == src

    def test_bit_complement_symmetric(self):
        mesh = Mesh(8, 8)
        assert bit_complement(mesh, 0, None) == 63
        assert bit_complement(mesh, 63, None) == 0

    def test_hotspot_targets_fixed_node(self):
        mesh = Mesh(4, 4)
        pat = hotspot(5)
        assert all(pat(mesh, s, None) == 5 for s in range(16))


class TestHarness:
    def test_all_offered_packets_delivered(self):
        result = run_packet_traffic(
            NocConfig(width=4, height=4), "uniform",
            injection_rate=0.02, duration=500,
        )
        assert result.offered > 0
        assert result.delivered == result.offered
        assert result.accepted_fraction == 1.0
        assert result.mean_latency > 0

    def test_latency_grows_with_load(self):
        for side, rates, duration in ((4, (0.01, 0.15), 800),
                                      (8, (0.01, 0.05, 0.10), 1_000)):
            curve = latency_load_curve(
                NocConfig(width=side, height=side), "uniform",
                rates=rates, duration=duration, size_flits=4,
            )
            latencies = [p.mean_latency for p in curve]
            assert latencies == sorted(latencies), side
            assert latencies[-1] > latencies[0], side
            assert all(p.accepted_fraction == 1.0 for p in curve), side

    def test_hotspot_saturates_harder_than_uniform(self):
        for side, hotspot_node, rate, duration in ((4, 5, 0.08, 600),
                                                   (8, 53, 0.03, 800)):
            cfg = NocConfig(width=side, height=side)
            uni = run_packet_traffic(cfg, "uniform", rate,
                                     duration=duration, size_flits=4)
            hot = run_packet_traffic(cfg, f"hotspot:{hotspot_node}", rate,
                                     duration=duration, size_flits=4)
            assert hot.mean_latency > uni.mean_latency, side

    def test_invalid_inputs(self):
        cfg = NocConfig(width=4, height=4)
        with pytest.raises(ValueError):
            run_packet_traffic(cfg, "uniform", injection_rate=0.0)
        with pytest.raises(ValueError):
            run_packet_traffic(cfg, "no-such-pattern")

    def test_pattern_registry(self):
        assert set(PATTERNS) >= {"uniform", "transpose", "bit_complement",
                                 "neighbor"}
