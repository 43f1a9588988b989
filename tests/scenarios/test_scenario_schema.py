"""Golden-file parser tests: one fixture per error class, exact
messages pinned — a schema error is an API surface, and a reworded or
vaguer message is a regression.  Plus the serialization contract:
``parse -> dump -> parse`` is the identity on every committed
scenario.
"""

from pathlib import Path

import pytest

from repro.errors import ExecutionError
from repro.scenarios import (
    Scenario,
    dump_scenario,
    load_scenario,
    parse_scenario,
    parse_window,
)

FIXTURES = Path(__file__).parent / "fixtures"
LIBRARY = Path(__file__).resolve().parents[2] / "scenarios"

#: fixture stem -> the exact message its load must die with.
GOLDEN_ERRORS = {
    "unknown_key": (
        "unknown stream key(s) ['event']; expected a subset of "
        "['events', 'keys', 'out_of_order', 'profile', 'rate', "
        "'rate_schedule', 'seed', 'skew', 'values']"
    ),
    "bad_rate_schedule": (
        "bad rate schedule: the last phase must end at until: 1.0, "
        "got 0.5"
    ),
    "negative_skew": (
        "stream skew must be >= 0, got -1 (a negative Zipf exponent "
        "is not a distribution)"
    ),
    "dangling_query": (
        "expect.queries references unknown query(s) ['missing']; the "
        "workload defines ['q'] (dangling query reference)"
    ),
    "bad_window": (
        "bad window literal '10/0': expected 'range/slide' or "
        "'range' with integer ticks"
    ),
    "chaos_on_serial": (
        "a chaos schedule needs a worker backend (runtime.backend: "
        "process or shm) — the serial backend has no workers to fault"
    ),
    "unknown_section": (
        "unknown scenario section(s) ['streams']; expected a subset "
        "of ['chaos', 'description', 'expect', 'name', 'runtime', "
        "'stream', 'workload']"
    ),
    "wrong_type": "stream.events must be an integer, got 'abc'",
}


class TestGoldenErrors:
    @pytest.mark.parametrize("stem", sorted(GOLDEN_ERRORS))
    def test_exact_message(self, stem):
        path = FIXTURES / f"{stem}.yaml"
        with pytest.raises(ExecutionError) as excinfo:
            load_scenario(path)
        assert str(excinfo.value) == GOLDEN_ERRORS[stem]

    def test_every_fixture_has_a_golden_message(self):
        stems = {p.stem for p in FIXTURES.glob("*.yaml")}
        assert stems == set(GOLDEN_ERRORS)


#: One scenario with a single field of the wrong type, and the exact
#: error it must raise: ``section.field``, what it must be, the value.
_QUERY = "workload:\n  queries:\n    - name: q\n"


class TestFieldTypes:
    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "stream:\n  events: abc\n" + _QUERY,
                "stream.events must be an integer, got 'abc'",
            ),
            (
                _QUERY + "      register_at: soon\n",
                "query.register_at must be an integer, got 'soon'",
            ),
            (
                "runtime:\n  shards: 2.5\n" + _QUERY,
                "runtime.shards must be an integer, got 2.5",
            ),
            (
                "runtime:\n  async_ingest: maybe\n" + _QUERY,
                "runtime.async_ingest must be a boolean, got 'maybe'",
            ),
            (
                "stream:\n  values:\n    mean: hi\n" + _QUERY,
                "values.mean must be a number, got 'hi'",
            ),
        ],
        ids=["events", "register_at", "shards", "async_ingest", "mean"],
    )
    def test_wrong_type_names_the_field(self, text, message):
        with pytest.raises(ExecutionError) as excinfo:
            load_scenario("name: t\n" + text)
        assert str(excinfo.value) == message

    def test_a_missing_required_key_is_named(self):
        with pytest.raises(
            ExecutionError, match=r"query needs key\(s\) \['name'\]"
        ):
            load_scenario(
                "name: t\nworkload:\n  queries:\n    - windows: ['60']\n"
            )

    def test_bool_is_not_a_number_and_int_is(self):
        with pytest.raises(ExecutionError, match="values.mean must be a"):
            load_scenario(
                "name: t\nstream:\n  values:\n    mean: true\n" + _QUERY
            )
        scenario = load_scenario(
            "name: t\nstream:\n  values:\n    mean: 3\n" + _QUERY
        )
        assert scenario.stream.values.mean == 3

    def test_every_construction_runs_the_check(self):
        from dataclasses import replace

        from repro.scenarios import RuntimeSpec

        with pytest.raises(ExecutionError, match="runtime.shards"):
            RuntimeSpec(shards=0)
        with pytest.raises(ExecutionError, match="runtime.backend"):
            replace(RuntimeSpec(), backend="nope")


class TestRoundTrip:
    @pytest.mark.parametrize(
        "path", sorted(LIBRARY.glob("*.yaml")), ids=lambda p: p.stem
    )
    def test_parse_dump_parse_is_identity(self, path):
        first = load_scenario(path)
        second = load_scenario(dump_scenario(first))
        assert second == first

    def test_library_is_nonempty(self):
        assert len(list(LIBRARY.glob("*.yaml"))) >= 4


class TestSchemaBasics:
    def test_windows_accept_flow_and_block_sequences(self):
        flow = load_scenario(
            "name: a\nworkload:\n  queries:\n"
            "    - name: q\n      windows: ['300/50', '120']\n"
        )
        block = load_scenario(
            "name: a\nworkload:\n  queries:\n"
            "    - name: q\n      windows:\n"
            "        - 300/50\n        - '120'\n"
        )
        assert flow == block

    def test_parse_window(self):
        hopping = parse_window("300/50")
        assert (hopping.range, hopping.slide) == (300, 50)
        tumbling = parse_window("120")
        assert (tumbling.range, tumbling.slide) == (120, 120)

    def test_defaults_fill_in(self):
        scenario = load_scenario(
            "name: tiny\nworkload:\n  queries:\n    - name: q\n"
        )
        assert isinstance(scenario, Scenario)
        assert scenario.stream.profile == "synthetic"
        assert scenario.runtime.shards == 1
        assert scenario.chaos is None
        assert scenario.expect.digest is None

    def test_duplicate_query_names_rejected(self):
        with pytest.raises(ExecutionError, match="duplicate"):
            load_scenario(
                "name: a\nworkload:\n  queries:\n"
                "    - name: q\n    - name: q\n"
            )

    def test_domain_profile_rejects_shape_knobs(self):
        with pytest.raises(ExecutionError, match="generates its own shape"):
            load_scenario(
                "name: a\nstream:\n  profile: flash_crowd\n  skew: 2.0\n"
                "workload:\n  queries:\n    - name: q\n"
            )

    def test_dict_source_and_json_fast_path(self):
        data = {
            "name": "j",
            "workload": {"queries": [{"name": "q"}]},
        }
        import json

        assert parse_scenario(data) == load_scenario(json.dumps(data))
