"""Query-layer tests: mounting, the minisql engine, the CLI."""

import json
import os

import pytest

from repro.experiments import get_experiment
from repro.results import RunStore, list_runs, load_run
from repro.results.minisql import MiniSQLError, execute
from repro.results.query import (RUNS_COLUMNS, QueryError, mount_store,
                                 run_query)

PEOPLE = [
    {"name": "ada", "team": "a", "score": 3, "bonus": None},
    {"name": "bob", "team": "b", "score": 1, "bonus": 2.5},
    {"name": "cyd", "team": "a", "score": 2, "bonus": None},
    {"name": "dee", "team": "b", "score": 4, "bonus": 0.5},
]
TABLES = {"people": PEOPLE}


def _store_with_runs(tmp_path, seeds=(1, 2)):
    experiment = get_experiment("E8")
    for seed in seeds:
        params = experiment.resolve_params(
            {"cs": (0.1,), "ns": (50,), "seed": seed})
        store = RunStore.open(str(tmp_path), "E8", params, workers=0)
        experiment.run(params=params, store=store)
        store.finish(wall_time=0.1)
    return str(tmp_path)


class TestMiniSQL:
    def test_select_where_order(self):
        columns, rows = execute(
            "SELECT name, score FROM people WHERE team = 'a' "
            "ORDER BY score DESC", TABLES)
        assert columns == ["name", "score"]
        assert rows == [("ada", 3), ("cyd", 2)]

    def test_select_star_uses_first_seen_columns(self):
        columns, rows = execute("SELECT * FROM people LIMIT 1", TABLES)
        assert columns == ["name", "team", "score", "bonus"]
        assert rows == [("ada", "a", 3, None)]

    def test_group_by_aggregates(self):
        columns, rows = execute(
            "SELECT team, COUNT(*) AS n, SUM(score) AS total, "
            "AVG(score) AS mean, MIN(score) AS lo, MAX(score) AS hi "
            "FROM people GROUP BY team ORDER BY team", TABLES)
        assert columns == ["team", "n", "total", "mean", "lo", "hi"]
        assert rows == [("a", 2, 5, 2.5, 2, 3), ("b", 2, 5, 2.5, 1, 4)]

    def test_global_aggregate_and_count_skips_nulls(self):
        _, rows = execute(
            "SELECT COUNT(*) AS all_rows, COUNT(bonus) AS with_bonus "
            "FROM people", TABLES)
        assert rows == [(4, 2)]

    def test_is_null_in_and_boolean_logic(self):
        _, rows = execute(
            "SELECT name FROM people WHERE bonus IS NULL "
            "AND (team IN ('a', 'c') OR score > 10) ORDER BY name",
            TABLES)
        assert rows == [("ada",), ("cyd",)]
        _, rows = execute(
            "SELECT name FROM people WHERE NOT bonus IS NULL "
            "ORDER BY name", TABLES)
        assert rows == [("bob",), ("dee",)]

    def test_distinct_and_limit(self):
        _, rows = execute(
            "SELECT DISTINCT team FROM people ORDER BY team LIMIT 1",
            TABLES)
        assert rows == [("a",)]

    def test_nulls_sort_last(self):
        _, rows = execute(
            "SELECT name, bonus FROM people ORDER BY bonus, name", TABLES)
        assert [row[0] for row in rows] == ["dee", "bob", "ada", "cyd"]

    def test_missing_column_reads_as_null(self):
        # Mounted stores are heterogeneous (the rows table is the union
        # of every experiment's columns), so an absent column is NULL,
        # not an error.
        _, rows = execute(
            "SELECT name FROM people WHERE missing IS NULL LIMIT 1",
            TABLES)
        assert rows == [("ada",)]

    @pytest.mark.parametrize("sql,message", [
        ("SELECT name FROM nowhere", "unknown table"),
        ("DELETE FROM people", "SELECT"),
        ("SELECT name FROM people WHERE COUNT(*) > 1", "WHERE"),
        ("SELECT name, COUNT(*) FROM people", "GROUP BY"),
        ("SELECT name FROM people ORDER BY bonus", "ORDER BY"),
        ("SELECT name FROM people; DROP TABLE people", "tokenize"),
    ])
    def test_rejections_carry_a_hint(self, sql, message):
        with pytest.raises(MiniSQLError, match=message):
            execute(sql, TABLES)


class TestMountStore:
    def test_tables_and_meta_columns(self, tmp_path):
        root = _store_with_runs(tmp_path)
        store = mount_store(root)
        assert store.experiments == ["E8"]
        assert len(store.tables["runs"]) == 2
        runs = store.tables["runs"]
        assert all(run["row_count"] == 4 for run in runs)
        rows = store.tables["rows"]
        assert len(rows) == 8
        first = rows[0]
        assert first["run_id"]
        assert json.loads(first["params"])["seed"] in (1, 2)
        assert json.loads(first["cell"])  # a JSON list
        # Row columns follow the meta columns in the declared order.
        assert store.columns["rows"].index("experiment") == 0

    def test_mount_skips_debris(self, tmp_path):
        root = _store_with_runs(tmp_path, seeds=(1,))
        (tmp_path / "E8" / "not-a-run").write_text("debris\n")
        broken = tmp_path / "E8" / "badmanifest00"
        broken.mkdir()
        (broken / "manifest.json").write_text("{not json\n")
        with pytest.warns(RuntimeWarning, match="skipping"):
            store = mount_store(root)
        assert len(store.tables["runs"]) == 1


class TestRunQuery:
    def test_run_query_end_to_end(self, tmp_path):
        root = _store_with_runs(tmp_path)
        result = run_query(
            root, "SELECT seed, COUNT(*) AS n FROM rows "
                  "GROUP BY seed ORDER BY seed")
        assert result.engine == "minisql"
        assert result.columns == ["seed", "n"]
        assert result.rows == [(1, 4), (2, 4)]
        assert result.as_dicts()[0] == {"seed": 1, "n": 4}

    def test_experiment_pseudo_table(self, tmp_path):
        root = _store_with_runs(tmp_path, seeds=(1,))
        result = run_query(
            root, "SELECT n, success_probability FROM E8 WHERE n = 50")
        assert len(result.rows) == 1
        assert result.rows[0][0] == 50

    def test_bad_sql_raises_query_error(self, tmp_path):
        root = _store_with_runs(tmp_path, seeds=(1,))
        with pytest.raises(QueryError, match="supports SELECT"):
            run_query(root, "SELECT frobnicate(")

    def test_rows_table_matches_load_run(self, tmp_path):
        root = _store_with_runs(tmp_path, seeds=(1,))
        [run_dir] = list_runs(root)
        stored = load_run(run_dir)[1]
        result = run_query(root, "SELECT * FROM rows ORDER BY row_index")
        assert [{column: row[column] for column in stored_row}
                for row, stored_row in zip(result.as_dicts(), stored)] \
            == stored
        assert len(result.rows) == len(stored)

    def test_rows_appended_after_finish_are_visible(self, tmp_path):
        root = _store_with_runs(tmp_path, seeds=(1,))
        [run_dir] = list_runs(root)
        with open(os.path.join(run_dir, "rows.jsonl"), "a") as handle:
            handle.write(json.dumps({"index": 99, "key": ["extra"],
                                     "row": {"n": 7}}) + "\n")
        result = run_query(root, "SELECT n FROM rows WHERE n = 7")
        assert result.rows == [(7,)]

    def test_torn_final_line_hides_no_rows(self, tmp_path):
        root = _store_with_runs(tmp_path, seeds=(1,))
        [run_dir] = list_runs(root)
        with open(os.path.join(run_dir, "rows.jsonl"), "a") as handle:
            handle.write('{"index": 99, "key": ["torn"')
        result = run_query(root, "SELECT COUNT(*) AS n FROM rows")
        assert result.rows == [(4,)]

    def test_run_with_a_raw_nan_line_is_skipped(self, tmp_path):
        root = _store_with_runs(tmp_path)
        bad_dir = list_runs(root)[0]
        with open(os.path.join(bad_dir, "rows.jsonl"), "a") as handle:
            handle.write('{"index": 9, "key": ["bad"], '
                         '"row": {"x": NaN}}\n')
        with pytest.warns(RuntimeWarning, match="non-finite"):
            result = run_query(root, "SELECT run_id FROM runs")
        assert [row[0] for row in result.rows] == \
            [os.path.basename(list_runs(root)[1])]

    def test_runs_table_has_the_declared_columns(self, tmp_path):
        root = _store_with_runs(tmp_path, seeds=(1,))
        store = mount_store(root)
        assert store.columns["runs"] == list(RUNS_COLUMNS)
        assert set(store.tables["runs"][0]) == set(RUNS_COLUMNS)


class TestQueryCLI:
    def test_query_table_output(self, tmp_path, capsys):
        from repro.cli import main

        root = _store_with_runs(tmp_path)
        assert main(["query", "SELECT seed, COUNT(*) AS n FROM rows "
                              "GROUP BY seed ORDER BY seed",
                     "--out", root]) == 0
        out = capsys.readouterr().out
        assert "seed" in out and "n" in out
        assert "2 row(s)" in out
        assert "via the minisql engine" in out

    def test_query_json_output(self, tmp_path, capsys):
        from repro.cli import main

        root = _store_with_runs(tmp_path, seeds=(1,))
        assert main(["query", "SELECT run_id, row_count FROM runs",
                     "--out", root, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "minisql"
        assert payload["columns"] == ["run_id", "row_count"]
        assert payload["rows"][0][1] == 4

    def test_query_csv_output(self, tmp_path, capsys):
        from repro.cli import main

        root = _store_with_runs(tmp_path, seeds=(1,))
        assert main(["query", "SELECT seed FROM runs", "--out", root,
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["seed", "1"]

    def test_query_bad_sql_is_a_usage_error(self, tmp_path, capsys):
        from repro.cli import main

        root = _store_with_runs(tmp_path, seeds=(1,))
        assert main(["query", "EXPLODE please", "--out", root]) == 2
        assert "repro query" in capsys.readouterr().err
