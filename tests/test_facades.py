"""The package facades: every public name resolves, whether the facade
imports it eagerly or on first access, to the object its defining module
holds (DESIGN.md, "What a process imports")."""

import importlib
import pathlib
import re
import sys
import types
import typing

import pytest

from repro.config import NocConfig
from repro.sim import Simulator

from test_import_budget import fresh_process
from test_vecflit import vecflit_without_numpy

TESTS = pathlib.Path(__file__).resolve().parent

FACADES = ("repro", "repro.api", "repro.noc", "repro.serve",
           "repro.experiments", "repro.locks", "repro.stats",
           "repro.workloads")

#: the subpackages a plain ``import repro`` binds, all on first access
ROOT_SUBPACKAGES = ("api", "config", "errors", "exec", "experiments", "obs",
                    "sim", "stats", "workloads")

#: public values without a ``__module__`` -> the ``module:attr`` defining
#: them
DATA = {
    "ALL_PROFILES": "repro.workloads.profiles:ALL_PROFILES",
    "ARBITERS": "repro.config:ARBITERS",
    "CONTINUE": "repro.noc.router:CONTINUE",
    "HAS_NUMPY": "repro.noc.vecflit:HAS_NUMPY",
    "MECHANISMS": "repro.config:MECHANISMS",
    "OMP2012": "repro.workloads.profiles:OMP2012",
    "OMP2012_PROFILES": "repro.workloads.profiles:OMP2012_PROFILES",
    "PARSEC": "repro.workloads.profiles:PARSEC",
    "PARSEC_PROFILES": "repro.workloads.profiles:PARSEC_PROFILES",
    "PATTERNS": "repro.noc.traffic:PATTERNS",
    "PHASES": "repro.stats.timeline:PHASES",
    "PLACEMENTS": "repro.config:PLACEMENTS",
    "PRIMITIVES": "repro.config:PRIMITIVES",
    "PROTOCOLS": "repro.config:PROTOCOL_NAMES",
    "PROTOCOL_NAMES": "repro.config:PROTOCOL_NAMES",
    "PROTOCOL_SPECS": "repro.coherence.protocol:PROTOCOLS",
    "PROTO_SCHEMA_VERSION": "repro.serve.proto:PROTO_SCHEMA_VERSION",
    "RESULT_SCHEMA_VERSION": "repro.stats.serialize:RESULT_SCHEMA_VERSION",
    "STOPPED": "repro.noc.router:STOPPED",
    "TOPOLOGIES": "repro.config:TOPOLOGIES",
    "TOPOLOGY_CLASSES": "repro.noc.topology:TOPOLOGY_CLASSES",
    "__version__": "repro:__version__",
}


def defined(name, value):
    """The object the module defining ``value`` holds under its name."""
    if isinstance(value, types.ModuleType):
        return sys.modules[value.__name__]
    if hasattr(value, "__qualname__"):
        owner = importlib.import_module(value.__module__)
        for part in value.__qualname__.split("."):
            owner = getattr(owner, part)
        return owner
    module, attr = DATA[name].split(":")
    return getattr(importlib.import_module(module), attr)


@pytest.mark.parametrize("facade", FACADES)
class TestFacade:
    def test_public_names_resolve_to_their_definitions(self, facade):
        module = importlib.import_module(facade)
        listed = dir(module)
        for name in module.__all__:
            value = getattr(module, name)
            assert name in listed, name
            assert value is defined(name, value), name
            # a lazily loaded name is kept: later reads are plain lookups
            assert vars(module)[name] is value, name

    def test_unknown_name_raises_attribute_error(self, facade):
        module = importlib.import_module(facade)
        with pytest.raises(AttributeError, match=re.escape(repr(facade))):
            module.no_such_name  # noqa: B018


def test_fresh_root_import_resolves_every_name():
    """A plain ``import repro`` in a fresh interpreter loads no
    subpackage, yet each subpackage it names and every ``__all__`` name
    resolves to the object its defining module holds."""
    out = fresh_process(
        "import sys\n"
        "import repro\n"
        "out['eager'] = sorted(m for m in sys.modules\n"
        "                      if m.startswith('repro.'))\n"
        f"subpackages = {ROOT_SUBPACKAGES!r}\n"
        "out['wrong'] = [name for name in subpackages if getattr(repro, name)\n"
        "                is not sys.modules['repro.' + name]]\n"
        "values = {name: getattr(repro, name) for name in repro.__all__}\n"
        f"sys.path.insert(0, {str(TESTS)!r})\n"
        "from test_facades import defined\n"
        "out['wrong'] += [name for name, value in values.items()\n"
        "                 if value is not defined(name, value)]\n"
        "out['unlisted'] = sorted(\n"
        "    set(subpackages + tuple(values)) - set(dir(repro)))")
    assert out["eager"] == ["repro._lazy"]
    assert out["wrong"] == []
    assert out["unlisted"] == []


def test_loading_a_module_binds_all_its_facade_names():
    """The simulator reads ``Workload`` through the ``repro.workloads``
    facade, which binds every generator name with it: tools that patch
    a facade's attribute in place (the benchmark's tracer patches
    ``repro.workloads.generate_workload``) find it once the simulator
    is imported."""
    out = fresh_process(
        "import repro.system\n"
        "import repro.workloads as workloads\n"
        "out['bound'] = sorted(name for name in ('WorkItem', 'Workload',\n"
        "    'generate_workload', 'single_lock_workload')\n"
        "    if name in vars(workloads))")
    assert out["bound"] == ["WorkItem", "Workload", "generate_workload",
                            "single_lock_workload"]


def test_factory_builds_the_vector_engine_loaded_now():
    """The factory resolves the vector engine when it is called, so a
    reloaded ``vecflit`` (the NumPy import shim) is the one it builds."""
    import repro.noc.vecflit as vecflit
    from repro.noc import VectorFlitNetwork, make_flit_network

    assert vecflit.make_flit_network is make_flit_network
    cfg = NocConfig(width=4, height=4)
    with vecflit_without_numpy() as reloaded:
        net = make_flit_network(Simulator(), cfg, "vector")
        assert type(net) is reloaded.VectorFlitNetwork
        assert reloaded.VectorFlitNetwork is not VectorFlitNetwork
    net = make_flit_network(Simulator(), cfg, "vector")
    assert type(net) is VectorFlitNetwork


def test_api_annotations_resolve():
    """``typing.get_type_hints`` resolves the names ``repro.api``
    annotates with but loads only on first access."""
    from repro import api
    from repro.obs import Observation
    from repro.workloads.generator import Workload

    hints = typing.get_type_hints(api.simulate)
    assert hints["workload"] is Workload
    assert hints["observe"] == typing.Optional[Observation]
    assert typing.get_type_hints(api.trace)["return"] == \
        typing.Iterator[Observation]
