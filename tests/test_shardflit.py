"""What the sharded flit engine's tests still check without the engine.

The sharded engine (``repro.noc.shardflit``) split the mesh into row
bands, one worker process a band, and every band ran the vector
engine's plan drive: ``send_at`` for each injection, then one ``run``.
It was deleted when the vector engine's array path made one process
faster than two (DESIGN.md §16).  Three of its contracts outlive it:

* the plan drive replays the event reference on randomized traffic
  (the whole mesh is the one-shard case), now on both sides of the
  vector engine's array threshold;
* ``"sharded"`` is not a flit engine that a config or the engine
  factory accepts;
* removing the ``NocConfig.shards`` field moved no cache address.
"""

import pytest

from repro import SystemConfig
from repro.config import NocConfig
from repro.exec import RunSpec
from repro.noc import vecflit
from repro.noc.engines import make_flit_network
from repro.noc.vecflit import VectorFlitNetwork
from repro.sim import Simulator

from test_vecflit import STEP_PATHS, _random_plan, _run_cosim, parity_cases


def _run(shape, plan):
    """The plan drive (``send_at`` + one ``run``) on a ``(width,
    height)`` mesh; returns its trace in :func:`test_vecflit._run_cosim`'s
    shape."""
    net = VectorFlitNetwork(NocConfig(width=shape[0], height=shape[1]))
    for cycle, src, dst, length in plan:
        net.send_at(cycle, src, dst, length)
    net.run(until=2_000_000)
    stream = [
        (p.src, p.dst, p.length, p.injected_cycle, p.delivered_cycle)
        for p in net.delivered
    ]
    return stream, net.cycle, net.events_processed


# ----------------------------------------------------------------------
# Vocabulary: no sharded engine on the config axis
# ----------------------------------------------------------------------
class TestShardVocabulary:
    def test_sharded_is_not_a_config_engine(self):
        """Neither a config nor the engine factory accepts the sharded
        engine; the config's refusal names the engines it allows."""
        with pytest.raises(ValueError) as excinfo:
            NocConfig(flit_engine="sharded")
        message = str(excinfo.value)
        assert "'sharded'" in message
        assert "'event'" in message and "'vector'" in message
        with pytest.raises(ValueError, match="unknown flit engine"):
            make_flit_network(Simulator(), NocConfig(), "sharded")


# ----------------------------------------------------------------------
# Randomized parity of the plan drive against the event reference
# ----------------------------------------------------------------------
class TestShardedParity:
    @pytest.mark.parametrize("seed,shape", parity_cases(range(5)))
    def test_event_vs_sharded_parity(self, seed, shape, monkeypatch):
        """Seed and shape sweep: the plan drive over the whole mesh (one
        shard) replays the kernel-driven event reference exactly (same
        stream, same final cycle, same event count) with every step on
        the array phases and with every step on the loops."""
        shape, plan = _random_plan(seed, shape)
        reference = _run_cosim("event", shape, plan)
        for path, ticks in sorted(STEP_PATHS.items()):
            monkeypatch.setattr(vecflit, "_ARRAY_TICKS", ticks)
            assert _run(shape, plan) == reference, f"seed={seed} {path}"


# ----------------------------------------------------------------------
# Addressing: removing the shards field moved no cache address
# ----------------------------------------------------------------------
class TestShardAddressing:
    def test_default_shards_keeps_spec_fingerprints(self):
        """Flit-level specs keep the addresses they had while
        ``NocConfig.shards`` existed and its default was elided."""

        def spec(**noc_kw):
            return RunSpec(
                benchmark="bwaves",
                config=SystemConfig(noc=NocConfig(flit_level=True, **noc_kw)),
            )

        assert spec().fingerprint == (
            "bdd1e7eac225756b1179a0571a48e769ecde7859a151b5b4872bef1e8a999028"
        )
        assert spec(flit_engine="vector").fingerprint == (
            "4931cf071d686508e004ff9d3359fe387f3c758ca027278a74c35743763c730f"
        )
        assert "shards" not in spec().canonical_payload()["config"]["noc"]
