"""Tests for the inpg-sim command line and what every inpg-* tool shares."""

import importlib
import json
import pathlib
import re

import pytest

from repro.cli import build_parser, main
from repro.config import describe_axes
from repro.experiments.runner import main as experiments_main
from repro.faults.campaign import main as faults_main
from repro.obs.cli import main as trace_main

#: the entry point of each tool sharing the workload-flag types
TOOLS = {"inpg-sim": main, "inpg-trace": trace_main,
         "inpg-faults": faults_main, "inpg-experiments": experiments_main}

#: (tool, argv, the flag refused): a workload flag no run can honour
BAD_WORKLOAD_FLAGS = [
    ("inpg-sim", "bogus", "benchmark"),
    ("inpg-trace", "bogus", "BENCHMARK"),
    ("inpg-faults", "bogus", "benchmark"),
    ("inpg-sim", "kdtree --primitive bogus", "--primitive"),
    ("inpg-trace", "kdtree --primitive bogus", "--primitive"),
    ("inpg-faults", "--primitive bogus", "--primitive"),
    ("inpg-faults", "--mechanism bogus", "--mechanism"),
    ("inpg-sim", "microbench --threads 100", "--threads"),
    ("inpg-sim", "microbench --threads 0", "--threads"),
    ("inpg-faults", "--threads 65", "--threads"),
    ("inpg-faults", "--threads 0", "--threads"),
    ("inpg-sim", "microbench --home 999", "--home"),
    ("inpg-sim", "microbench --home -1", "--home"),
    ("inpg-faults", "--home 64", "--home"),
    ("inpg-sim", "kdtree --scale -1", "--scale"),
    ("inpg-sim", "kdtree --scale 0", "--scale"),
    ("inpg-sim", "kdtree --scale nan", "--scale"),
    ("inpg-trace", "kdtree --scale -1", "--scale"),
    ("inpg-trace", "kdtree --scale 0", "--scale"),
    ("inpg-faults", "--scale -1", "--scale"),
    ("inpg-faults", "--scale 0", "--scale"),
    ("inpg-experiments", "fig9 --scale -1 --no-cache", "--scale"),
    ("inpg-experiments", "fig9 --scale 0", "--scale"),
    # a workload flag the chosen workload ignores
    ("inpg-sim", "kdtree --threads 8", "--threads"),
    ("inpg-sim", "kdtree --home 5", "--home"),
    ("inpg-sim", "microbench --scale 0.5", "--scale"),
    ("inpg-sim", "microbench --seed 5", "--seed"),
    ("inpg-trace", "microbench --scale 0.5", "--scale"),
    ("inpg-trace", "microbench --seed 5", "--seed"),
    ("inpg-faults", "kdtree --threads 8", "--threads"),
    ("inpg-faults", "kdtree --home 5", "--home"),
    ("inpg-faults", "--scale 0.5", "--scale"),
    ("inpg-faults", "microbench --seed 5", "--seed"),
]


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["freqmine"])
        assert args.mechanism == "original"
        assert args.primitive == "qsl"
        assert args.scale == 1.0

    def test_rejects_unknown_mechanism(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["freqmine", "--mechanism", "magic"])


class TestMain:
    def test_benchmark_run_prints_summary(self, capsys):
        rc = main(["vips", "--scale", "0.4", "--primitive", "mcs"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "vips [original/mcs]" in out
        assert "roi_cycles" in out

    def test_json_output_is_parseable(self, capsys):
        rc = main(["vips", "--scale", "0.4", "--primitive", "mcs",
                   "--json"])
        assert rc == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["benchmark"] == "vips"
        assert parsed["cs_completed"] > 0

    def test_microbench_with_gantt(self, capsys):
        rc = main(["microbench", "--threads", "8", "--primitive", "mcs",
                   "--gantt"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "microbench [original/mcs]" in out
        assert "t0" in out  # gantt rows

    def test_ttl_alias(self, capsys):
        rc = main(["vips", "--scale", "0.4", "--primitive", "TTL"])
        assert rc == 0
        assert "[original/ticket]" in capsys.readouterr().out

    def test_topology_and_arbiter_flags_run(self, capsys):
        rc = main(["vips", "--scale", "0.3", "--topology", "torus",
                   "--arbiter", "wrr"])
        assert rc == 0
        assert "roi_cycles" in capsys.readouterr().out

    def test_trace_names_every_axis_that_ran(self, tmp_path, capsys):
        """A traced run is labelled by its spec, so the trace records
        the axes it ran with, not only benchmark/mechanism/primitive."""
        out = tmp_path / "t.json"
        rc = main(["microbench", "--threads", "8", "--home", "5",
                   "--topology", "torus", "--trace-out", str(out)])
        assert rc == 0
        capsys.readouterr()
        names = [event["args"]["name"]
                 for event in json.loads(out.read_text())["traceEvents"]
                 if event.get("name") == "process_name"]
        assert names
        assert all("topology=torus" in name for name in names), names

    def test_refused_run_is_one_error_line(self, tmp_path, capsys):
        """A ReproError raised while the run is built or run (here the
        wall-clock budget's RunTimeout) ends in one ``error:`` line on
        stderr and a nonzero exit, not a traceback."""
        rc = main(["kdtree", "--scale", "0.25", "--timeout", "0.001",
                   "--trace-out", str(tmp_path / "t.json")])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "wall-clock budget exhausted" in captured.err
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("site,named", [
        ("router:999", "no router 999"),
        ("link:0->63", "no link 0->63"),
    ])
    def test_fault_site_outside_the_mesh_is_one_error_line(
            self, site, named, capsys):
        """A router or link fault site the mesh does not have is refused
        (UnsupportedFaultSite), not ignored and not a traceback."""
        rc = main(["kdtree", "--scale", "0.25", "--no-cache",
                   "--faults", f"drop:1@{site}"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: fault site '{site}'")
        assert captured.err.count("\n") == 1
        assert named in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("tool", ["inpg-sim", "inpg-faults"])
    def test_malformed_fault_plan_is_a_usage_error(self, tool, capsys):
        with pytest.raises(SystemExit) as excinfo:
            TOOLS[tool](["kdtree", "--faults", "bogus:1"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == (
            f"{tool}: error: argument --faults: unknown fault kind "
            "'bogus' (one of ('drop', 'duplicate', 'corrupt', 'delay'))")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "tool,argv,flag", BAD_WORKLOAD_FLAGS,
        ids=[f"{tool} {argv}" for tool, argv, _ in BAD_WORKLOAD_FLAGS])
    def test_bad_workload_flag_is_a_usage_error(self, tool, argv, flag,
                                                capsys):
        """A workload flag no run can honour is refused at parse time:
        a usage error, not a traceback, a wrapped node or a silent run."""
        with pytest.raises(SystemExit) as excinfo:
            TOOLS[tool](argv.split())
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: {tool}")
        [error] = [line for line in captured.err.splitlines()
                   if "error:" in line]
        assert error.startswith(f"{tool}: error: argument {flag}: ")
        assert "Traceback" not in captured.err

    def test_workload_flags_keep_valid_values(self):
        args = build_parser().parse_args([
            "microbench", "--threads", "64", "--home", "63",
            "--primitive", "TTL"])
        assert (args.benchmark, args.threads, args.home, args.primitive,
                args.scale, args.seed) == \
            ("microbench", 64, 63, "ticket", 1.0, 2018)
        args = build_parser().parse_args(["microbench", "--threads", "1",
                                          "--home", "0"])
        assert (args.threads, args.home) == (1, 0)
        args = build_parser().parse_args(["fluid", "--scale", "0.5",
                                          "--seed", "7"])
        assert (args.benchmark, args.scale, args.seed, args.threads,
                args.home) == ("fluid", 0.5, 7, 64, 53)
        # inpg-trace takes only --scale and --seed; unset, they keep the
        # named benchmarks' defaults beside a microbench
        from repro.obs.cli import build_parser as trace_parser

        args = trace_parser().parse_args(["microbench", "fluid"])
        assert (args.scale, args.seed) == (1.0, 2018)

    def test_rejects_unknown_topology(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["vips", "--topology", "hypercube"])

    def test_list(self, capsys):
        rc = main(["--list"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "freqmine" in out and "kdtree" in out


class TestCheckedRunPerAxisValue:
    """Two protocol-checked runs per value of every CLI axis, read from
    ``describe_axes()`` so a value added to an AXES row is covered with
    no edit.  The topology values also run the microbench under the WRR
    arbiter, so both NoC axes meet.  A strict protocol violation ends
    the run with exit 1.  The flit-level runs are
    ``tests/test_flit_fabric.py``'s."""

    @pytest.mark.parametrize("flag,value", [
        (axis["flag"], value) for axis in describe_axes().values()
        for value in axis["choices"]
    ])
    def test_checked_runs_exit_clean(self, flag, value, capsys):
        extra = ["--arbiter", "wrr"] if flag == "--topology" else []
        assert main(["kdtree", "--scale", "0.25", "--mechanism", "inpg",
                     "--no-cache", "--check-protocol", flag, value]) == 0
        assert main(["microbench", "--threads", "16", "--home", "5",
                     "--no-cache", "--check-protocol", flag, value]
                    + extra) == 0
        assert capsys.readouterr().err == ""


def console_scripts() -> dict:
    """``[project.scripts]`` of ``pyproject.toml``, read from its text
    (Python 3.10 has no ``tomllib``): script name -> ``module:attr``."""
    text = (pathlib.Path(__file__).resolve().parent.parent
            / "pyproject.toml").read_text()
    table = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text,
                      re.M | re.S).group(1)
    return dict(re.findall(r'^([\w-]+)\s*=\s*"([\w.]+:\w+)"', table, re.M))


class TestConsoleScripts:
    def test_every_entry_point_is_callable(self):
        """An installed script whose ``main`` was renamed or moved fails
        here first, not only after ``pip install``."""
        scripts = console_scripts()
        assert {"inpg-experiments", "inpg-faults", "inpg-serve", "inpg-sim",
                "inpg-trace"} <= set(scripts)
        for name, target in scripts.items():
            module, _, attr = target.partition(":")
            entry = getattr(importlib.import_module(module), attr, None)
            assert callable(entry), f"{name} = {target!r}"


class TestSharedFlagVocabulary:
    """Every inpg-* tool spells the shared execution flags identically."""

    PARSERS = {}

    @classmethod
    def _parsers(cls):
        if not cls.PARSERS:
            from repro.experiments.runner import build_parser as experiments
            from repro.faults.campaign import build_parser as faults
            from repro.serve.server import build_parser as serve

            cls.PARSERS = {
                "inpg-sim": build_parser(),
                "inpg-experiments": experiments(),
                "inpg-faults": faults(),
                "inpg-serve": serve(),
            }
        return cls.PARSERS

    @staticmethod
    def _flag_help(parser, flag):
        for action in parser._actions:
            if flag in action.option_strings:
                return action.help
        return None

    def test_shared_flags_identical_everywhere(self):
        parsers = self._parsers()
        for flag in ("--jobs", "--timeout", "--cache-dir", "--no-cache"):
            helps = {name: self._flag_help(parser, flag)
                     for name, parser in parsers.items()}
            assert all(text is not None for text in helps.values()), \
                f"{flag} missing from {sorted(k for k, v in helps.items() if v is None)}"
            assert len(set(helps.values())) == 1, \
                f"{flag} documented differently: {helps}"

    def test_remote_flag_on_clients_not_service(self):
        parsers = self._parsers()
        for name in ("inpg-sim", "inpg-experiments", "inpg-faults"):
            assert self._flag_help(parsers[name], "--remote") is not None
        # the service IS the remote end; it must not take --remote
        assert self._flag_help(parsers["inpg-serve"], "--remote") is None

    def test_jobs_short_spelling_shared(self):
        for name, parser in self._parsers().items():
            if name == "inpg-serve":
                continue
            for action in parser._actions:
                if "--jobs" in action.option_strings:
                    assert "-j" in action.option_strings, name

    def test_trace_with_remote_rejected(self):
        rc = main(["vips", "--trace", "--remote", "http://127.0.0.1:1"])
        assert rc == 2

    def test_axis_flags_shared_between_sim_and_experiments(self):
        """All three simulation axes (repro.api.describe_axes) are spelled
        identically — same flag, same help, same choices — on inpg-sim
        and inpg-experiments."""
        from repro.api import describe_axes

        parsers = self._parsers()
        for name, axis in describe_axes().items():
            helps, choices = {}, {}
            for tool in ("inpg-sim", "inpg-experiments"):
                for action in parsers[tool]._actions:
                    if axis["flag"] in action.option_strings:
                        helps[tool] = action.help
                        choices[tool] = tuple(action.choices)
                        # axes default to None: "unset" stays
                        # distinguishable from "explicitly default",
                        # keeping canonical fingerprints elided
                        assert action.default is None, (tool, name)
            assert set(helps) == {"inpg-sim", "inpg-experiments"}, name
            assert len(set(helps.values())) == 1, (name, helps)
            assert all(c == axis["choices"] for c in choices.values()), name

    def test_axis_values_survive_the_serve_proto(self):
        """A spec pinned to every non-default axis value round-trips the
        serve wire format with an identical fingerprint."""
        from repro.api import RunSpec, SystemConfig
        from repro.serve.proto import decode_submit, submit_request

        spec = RunSpec(
            benchmark="vips", mechanism="inpg",
            config=SystemConfig().with_overrides(
                protocol="msi",
                noc={"topology": "torus", "arbiter": "wrr",
                     "wrr_weights": (3, 1)},
                inpg={"placement": "center"},
            ),
        )
        [decoded], _policy = decode_submit(submit_request([spec]))
        assert decoded == spec
        assert decoded.fingerprint == spec.fingerprint
        resolved = decoded.resolved_config()
        assert resolved.protocol == "msi"
        assert resolved.noc.topology == "torus"
        assert resolved.noc.arbiter == "wrr"
        assert resolved.inpg.placement == "center"
