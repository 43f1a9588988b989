"""Tests for the command-line interface."""

import re
from pathlib import Path

import pytest

from repro.bench.cli import EXPERIMENTS, build_parser, main

DESIGN = Path(__file__).resolve().parents[2] / "DESIGN.md"

QUERY = (
    "SELECT MIN(T) FROM Input GROUP BY WINDOWS("
    "TUMBLING(minute, 20), TUMBLING(minute, 30), TUMBLING(minute, 40))"
)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_optimize_args(self):
        args = build_parser().parse_args(["optimize", QUERY, "--trill"])
        assert args.query == QUERY
        assert args.trill


class TestOptimizeCommand:
    def test_prints_summary_and_tree(self, capsys):
        assert main(["optimize", QUERY]) == 0
        out = capsys.readouterr().out
        assert "predicted speedup" in out
        assert "Union" in out

    def test_trill_output(self, capsys):
        assert main(["optimize", QUERY, "--trill"]) == 0
        assert ".Tumbling(" in capsys.readouterr().out

    def test_no_factors(self, capsys):
        assert main(["optimize", QUERY, "--no-factors"]) == 0
        out = capsys.readouterr().out
        assert "w/ factor windows" not in out


class TestListCommand:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig11", "fig12", "fig13", "fig19", "table1", "table3"):
            assert name in out
        listed = [line.split()[0] for line in out.splitlines()]
        assert listed == sorted(EXPERIMENTS)
        # DESIGN.md §4 maps every paper artifact to its id.
        text = DESIGN.read_text()
        section = text[text.index("## §4") : text.index("## §5")]
        assert set(re.findall(r"`((?:fig|table)\d+)`", section)) == set(listed)


class TestExperimentCommand:
    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "fig99"]) == 2

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_every_listed_id_runs(self, capsys, name):
        code = main(["experiment", name, "--events", "4000", "--runs", "1"])
        assert code == 0
        assert capsys.readouterr().out

    def test_fig12_runs(self, capsys):
        assert main(["experiment", "fig12", "--runs", "1"]) == 0
        out = capsys.readouterr().out
        assert "optimization overhead" in out

    def test_fig19_runs_small(self, capsys):
        code = main(
            ["experiment", "fig19", "--events", "4000", "--runs", "1"]
        )
        assert code == 0
        assert "Pearson r" in capsys.readouterr().out

    def test_table1_runs_small(self, capsys):
        code = main(
            ["experiment", "table1", "--events", "4000", "--runs", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "R-5-tumbling" in out and "S-10-hopping" in out


class TestEnginesCommand:
    def test_lists_registered_paths(self, capsys):
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        for name in ("columnar", "columnar-panes", "streaming-chunked"):
            assert name in out

    def test_annotates_query_plan(self, capsys):
        query = (
            "SELECT DeviceID, System.Window().Id, Min(T) AS MinTemp "
            "FROM Input TIMESTAMP BY EntryTime "
            "GROUP BY DeviceID, Windows("
            "Window('20 min', TumblingWindow(minute, 20)), "
            "Window('40 min', TumblingWindow(minute, 40)))"
        )
        assert main(["engines", "--query", query]) == 0
        out = capsys.readouterr().out
        assert "engine=columnar-panes" in out
        assert "via panes[p=" in out


class TestServeCommand:
    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "defaults:\n  rtae: 5\n",
                "error: defaults: unknown tenant config key(s) ['rtae']",
            ),
            (
                "tenants:\n  a:\n    rate: 0\n",
                "error: tenant 'a': rate must be > 0, got 0",
            ),
        ],
        ids=["unknown_key", "bad_value"],
    )
    def test_bad_config_exits_2_before_binding_a_port(
        self, tmp_path, monkeypatch, capsys, text, message
    ):
        import repro.service

        def refuse(*args, **kwargs):
            raise AssertionError("serve went on with a bad config")

        monkeypatch.setattr(repro.service, "SessionManager", refuse)
        monkeypatch.setattr(repro.service, "ServiceServer", refuse)
        path = tmp_path / "tenants.yaml"
        path.write_text(text)
        assert main(["serve", "--port", "0", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.yaml"
        assert main(["serve", "--port", "0", "--config", str(missing)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestSessionCommand:
    QUERY = (
        "SELECT DeviceID, MIN(T) FROM Input GROUP BY DeviceID, Windows("
        "Window('a', TumblingWindow(second, 20)))"
    )

    @pytest.mark.parametrize("value", ["-1", "nan"])
    def test_refused_hysteresis_exits_2(self, capsys, value):
        code = main(
            ["session", self.QUERY, "--events", "100", "--hysteresis", value]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: hysteresis must be")
        assert "Traceback" not in captured.err


class TestSessionCheckpointRoundTrip:
    """The CLI's two per-event ``push`` loops: ``session`` writing
    checkpoints as it streams, then ``restore`` resuming the same
    stream from the newest one."""

    QUERIES = (
        "SELECT DeviceID, MIN(T) FROM Input GROUP BY DeviceID, Windows("
        "Window('a', TumblingWindow(second, 20)), "
        "Window('b', HoppingWindow(second, 40, 20)))",
        "SELECT DeviceID, SUM(T) FROM Input GROUP BY DeviceID, Windows("
        "Window('c', TumblingWindow(second, 30)))",
    )

    @staticmethod
    def emitted(out: str) -> list:
        lines = out.splitlines()
        start = lines.index("emitted results:") + 1
        return lines[start : lines.index("", start)]

    @pytest.mark.parametrize("mode", [[], ["--async-ingest"]],
                             ids=["sync", "async"])
    def test_restore_resumes_to_the_uninterrupted_results(
        self, tmp_path, capsys, mode
    ):
        stream = ["--events", "3000"]
        assert main(["session", *self.QUERIES, *stream, *mode]) == 0
        expected = self.emitted(capsys.readouterr().out)
        assert len(expected) == 3
        directory = str(tmp_path / "ckpt")
        code = main(
            ["session", *self.QUERIES, *stream, *mode,
             "--checkpoint-dir", directory, "--checkpoint-every", "100"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("checkpoint -> ckpt-") >= 5
        assert self.emitted(out) == expected
        assert main(["restore", directory, *mode]) == 0
        out = capsys.readouterr().out
        assert "restored x1 session" in out
        assert self.emitted(out) == expected
