"""Tests for the inpg-sim command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


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
        from repro.faults.campaign import main as faults_main

        run = {"inpg-sim": main, "inpg-faults": faults_main}[tool]
        with pytest.raises(SystemExit) as excinfo:
            run(["kdtree", "--faults", "bogus:1"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == (
            f"{tool}: error: argument --faults: unknown fault kind "
            "'bogus' (one of ('drop', 'duplicate', 'corrupt', 'delay'))")
        assert "Traceback" not in err

    def test_rejects_unknown_topology(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["vips", "--topology", "hypercube"])

    def test_list(self, capsys):
        rc = main(["--list"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "freqmine" in out and "kdtree" in out


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
