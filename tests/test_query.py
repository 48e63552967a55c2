"""Query-layer tests: mounting into SQLite, read-only SQL, the CLI."""

import json
import os

import pytest

from repro.experiments import get_experiment
from repro.results import RunStore, list_runs, load_run
from repro.results.query import (ROW_META_COLUMNS, RUNS_COLUMNS, QueryError,
                                 mount_store, query_store, run_query)

PEOPLE = [
    {"name": "ada", "team": "a", "score": 3, "bonus": None},
    {"name": "bob", "team": "b", "score": 1, "bonus": 2.5},
    {"name": "cyd", "team": "a", "score": 2, "bonus": None},
    {"name": "dee", "team": "b", "score": 4, "bonus": 0.5},
]


def _write_run(root, experiment, rows, digest="0123456789ab"):
    """One hand-made run directory holding ``rows`` in order."""
    run_dir = os.path.join(str(root), experiment, digest)
    os.makedirs(run_dir)
    with open(os.path.join(run_dir, "rows.jsonl"), "w") as handle:
        for index, row in enumerate(rows):
            handle.write(json.dumps({"index": index,
                                     "key": [experiment, index],
                                     "row": row}) + "\n")
    manifest = {"experiment": experiment, "params": {"seed": 0}, "seed": 0,
                "workers": 0, "backend": "trial", "completed": True,
                "wall_time_seconds": 1.0, "row_count": len(rows),
                "run_health": None}
    with open(os.path.join(run_dir, "manifest.json"), "w") as handle:
        json.dump(manifest, handle)
    return str(root)


@pytest.fixture
def people(tmp_path):
    """A store whose one experiment, ``people``, holds PEOPLE."""
    return _write_run(tmp_path / "results", "people", PEOPLE)


def _store_with_runs(tmp_path, seeds=(1, 2)):
    experiment = get_experiment("E8")
    for seed in seeds:
        params = experiment.resolve_params(
            {"cs": (0.1,), "ns": (50,), "seed": seed})
        store = RunStore.open(str(tmp_path), "E8", params, workers=0)
        experiment.run(params=params, store=store)
        store.finish(wall_time=0.1)
    return str(tmp_path)


class TestSQL:
    """SQL semantics over a small store, through ``run_query``."""

    def test_select_where_order(self, people):
        result = run_query(people, "SELECT name, score FROM people "
                                   "WHERE team = 'a' ORDER BY score DESC")
        assert result.columns == ["name", "score"]
        assert result.rows == [("ada", 3), ("cyd", 2)]

    def test_select_star_puts_meta_columns_first(self, people):
        result = run_query(people, "SELECT * FROM people LIMIT 1")
        assert result.columns == [*ROW_META_COLUMNS,
                                  "name", "team", "score", "bonus"]
        assert result.rows[0][-4:] == ("ada", "a", 3, None)

    def test_group_by_aggregates(self, people):
        result = run_query(
            people, "SELECT team, COUNT(*) AS n, SUM(score) AS total, "
                    "AVG(score) AS mean, MIN(score) AS lo, "
                    "MAX(score) AS hi FROM people GROUP BY team "
                    "ORDER BY team")
        assert result.columns == ["team", "n", "total", "mean", "lo", "hi"]
        assert result.rows == [("a", 2, 5, 2.5, 2, 3),
                               ("b", 2, 5, 2.5, 1, 4)]

    def test_global_aggregate_and_count_skips_nulls(self, people):
        result = run_query(people, "SELECT COUNT(*) AS all_rows, "
                                   "COUNT(bonus) AS with_bonus FROM people")
        assert result.rows == [(4, 2)]

    def test_is_null_in_and_boolean_logic(self, people):
        result = run_query(
            people, "SELECT name FROM people WHERE bonus IS NULL "
                    "AND (team IN ('a', 'c') OR score > 10) ORDER BY name")
        assert result.rows == [("ada",), ("cyd",)]
        result = run_query(people, "SELECT name FROM people "
                                   "WHERE NOT bonus IS NULL ORDER BY name")
        assert result.rows == [("bob",), ("dee",)]

    def test_distinct_and_limit(self, people):
        result = run_query(
            people, "SELECT DISTINCT team FROM people ORDER BY team LIMIT 1")
        assert result.rows == [("a",)]

    def test_column_of_another_experiment_reads_null(self, people):
        # The rows table is the union of every experiment's columns, so
        # a column that only another experiment has reads as NULL.
        _write_run(people, "other", [{"name": "eve", "extra": 1}])
        result = run_query(people, "SELECT name FROM people "
                                   "WHERE extra IS NULL LIMIT 1")
        assert result.rows == [("ada",)]
        result = run_query(people, "SELECT name, extra FROM other")
        assert result.rows == [("eve", 1)]

    @pytest.mark.parametrize("sql,message", [
        ("SELECT name FROM nowhere", "no such table"),
        ("SELECT name FROM people WHERE COUNT(*) > 1", "misuse of aggregate"),
        ("SELECT name FROM people; DROP TABLE people", "one statement"),
        ("SELECT frobnicate(", "syntax error|incomplete input"),
        ("-- no statement", "no SELECT statement"),
    ])
    def test_rejections_carry_a_hint(self, people, sql, message):
        with pytest.raises(QueryError, match=message) as caught:
            run_query(people, sql)
        assert "read-only SQLite SELECT" in str(caught.value)


class TestDeclaredChanges:
    """Where SQLite answers differently from the former built-in engine."""

    def test_unaliased_aggregate_labels_come_back_as_written(self, people):
        result = run_query(people, "SELECT COUNT(*), max(score) FROM people")
        assert result.columns == ["COUNT(*)", "max(score)"]
        assert result.rows == [(4, 4)]

    def test_nulls_sort_first(self, people):
        result = run_query(people, "SELECT name, bonus FROM people "
                                   "ORDER BY bonus, name")
        assert [row[0] for row in result.rows] == ["ada", "cyd", "dee", "bob"]

    def test_null_equals_null_is_not_true(self, people):
        result = run_query(people, "SELECT COUNT(*) FROM people "
                                   "WHERE bonus = NULL")
        assert result.rows == [(0,)]

    def test_absent_column_is_an_error(self, people):
        with pytest.raises(QueryError, match="no such column: missing"):
            run_query(people, "SELECT name FROM people WHERE missing IS NULL")

    def test_max_of_a_boolean_column_is_an_int(self, people):
        result = run_query(people, "SELECT completed, MAX(completed) "
                                   "FROM runs")
        assert result.rows == [(True, 1)]
        assert type(result.rows[0][1]) is int

    def test_float_sums_agree_to_rounding(self, tmp_path):
        rates = [0.1 * k + 1e-3 for k in range(50)]
        root = _write_run(tmp_path, "F", [{"rate": rate} for rate in rates])
        [(total, mean)] = run_query(
            root, "SELECT SUM(rate), AVG(rate) FROM F").rows
        assert total == pytest.approx(sum(rates), rel=1e-12)
        assert mean == pytest.approx(sum(rates) / len(rates), rel=1e-12)

    def test_case_colliding_column_mounts_with_a_suffix(self, tmp_path):
        root = _store_with_runs(tmp_path, seeds=(1,))
        [run_dir] = list_runs(root)
        stored = load_run(run_dir)[1][0]
        assert "c" in stored and "C" in stored
        result = run_query(root, "SELECT c, C_ FROM E8 WHERE row_index = 0")
        assert result.rows == [(stored["c"], stored["C"])]


class TestTypeFidelity:
    def test_bools_and_nested_values_round_trip(self, tmp_path):
        root = _write_run(tmp_path, "T", [
            {"ok": True, "mixed": 1, "nested": {"b": [1, 2], "a": None}},
            {"ok": None, "mixed": False, "nested": [True]},
            {"ok": False, "mixed": None, "nested": None},
        ])
        result = run_query(root, "SELECT ok, mixed, nested FROM T "
                                 "ORDER BY row_index")
        assert result.rows == [(True, 1, '{"a": null, "b": [1, 2]}'),
                               (None, 0, "[true]"),
                               (False, None, None)]
        assert [type(row[0]) for row in result.rows] == \
            [bool, type(None), bool]
        # A column that also holds ints is not BOOLEAN: bools read as ints.
        assert type(result.rows[1][1]) is int

    def test_an_integer_beyond_64_bits_reads_as_its_digits(self, tmp_path):
        root = _write_run(tmp_path, "W", [{"big": 10 ** 20, "small": 1}])
        result = run_query(root, "SELECT big, small FROM W")
        assert result.rows == [(str(10 ** 20), 1)]


#: sqlite3's messages for a statement the authorizer refused.
DENIED = "not authorized|authorization denied"


class TestReadOnly:
    @pytest.mark.parametrize("sql", [
        "DELETE FROM rows",
        "UPDATE rows SET score = 0",
        "INSERT INTO rows (name) VALUES ('zed')",
        "DROP TABLE rows",
        "PRAGMA table_info(rows)",
        "SELECT load_extension('people')",
        "CREATE TEMP VIEW v AS SELECT name FROM people",
    ])
    def test_writes_and_side_doors_are_denied(self, people, sql):
        with pytest.raises(QueryError, match=DENIED):
            run_query(people, sql)

    @pytest.mark.parametrize("sql", [
        "ATTACH DATABASE 'x.db' AS x",
        "VACUUM INTO 'x.db'",
    ])
    def test_no_file_is_created(self, people, tmp_path, monkeypatch, sql):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(QueryError, match=DENIED):
            run_query(people, sql)
        assert not (tmp_path / "x.db").exists()

    def test_a_denied_statement_leaves_the_store_queryable(self, people):
        store = mount_store(people)
        with pytest.raises(QueryError):
            query_store(store, "DELETE FROM rows")
        assert query_store(store, "SELECT COUNT(*) FROM rows").rows == \
            [(len(PEOPLE),)]


class TestTableGating:
    def test_only_the_named_tables_are_mounted(self, people):
        assert set(mount_store(people, tables={"runs"}).columns) == {"runs"}
        assert set(mount_store(people, tables={"people"}).columns) == \
            {"runs", "rows"}
        assert set(mount_store(people, tables={"spans"}).columns) == \
            {"runs", "spans", "metrics"}
        assert set(mount_store(people).columns) == \
            {"runs", "rows", "spans", "metrics"}

    def test_an_experiment_named_like_a_keyword_mounts(self, people):
        _write_run(people, "order", [{"n": 1}, {"n": 2}])
        assert run_query(people, 'SELECT SUM(n) FROM "order"').rows == [(3,)]

    def test_table_names_match_in_any_case(self, people):
        assert run_query(people, "SELECT COUNT(*) FROM ROWS").rows == [(4,)]
        assert run_query(people, "SELECT COUNT(*) FROM People").rows == \
            [(4,)]


class TestMountStore:
    def test_tables_and_meta_columns(self, tmp_path):
        root = _store_with_runs(tmp_path)
        store = mount_store(root)
        assert store.experiments == ["E8"]
        result = query_store(store, "SELECT row_count FROM runs")
        assert result.rows == [(4,), (4,)]
        rows = query_store(store, "SELECT * FROM rows").as_dicts()
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
        assert query_store(store, "SELECT COUNT(*) FROM runs").rows == [(1,)]


class TestRunQuery:
    def test_run_query_end_to_end(self, tmp_path):
        root = _store_with_runs(tmp_path)
        result = run_query(
            root, "SELECT seed, COUNT(*) AS n FROM rows "
                  "GROUP BY seed ORDER BY seed")
        assert result.engine == "sqlite"
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
        with pytest.raises(QueryError, match="read-only SQLite SELECT"):
            run_query(root, "SELECT frobnicate(")

    def test_rows_table_matches_load_run(self, tmp_path):
        root = _store_with_runs(tmp_path, seeds=(1,))
        [run_dir] = list_runs(root)
        stored = load_run(run_dir)[1]
        result = run_query(root, "SELECT * FROM rows ORDER BY row_index")
        # E8's ``C`` collides with ``c`` in SQL and is mounted as ``C_``.
        mounted = {"C": "C_"}
        assert [{column: row[mounted.get(column, column)]
                 for column in stored_row}
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
        assert query_store(store, "SELECT * FROM runs").columns == \
            list(RUNS_COLUMNS)


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
        assert "via the sqlite engine" in out

    def test_query_json_output(self, tmp_path, capsys):
        from repro.cli import main

        root = _store_with_runs(tmp_path, seeds=(1,))
        assert main(["query", "SELECT run_id, row_count FROM runs",
                     "--out", root, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "sqlite"
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

    def test_query_json_without_a_json_form_is_a_usage_error(
            self, people, capsys):
        from repro.cli import main

        assert main(["query", "SELECT x'41', 1e999 FROM runs",
                     "--out", people, "--format", "json"]) == 2
        assert "--format csv" in capsys.readouterr().err

    def test_query_attach_is_a_usage_error(self, people, tmp_path,
                                           monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["query", "ATTACH DATABASE 'x.db' AS x",
                     "--out", people]) == 2
        assert "read-only" in capsys.readouterr().err
        assert not (tmp_path / "x.db").exists()
