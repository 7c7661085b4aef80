import csv
import io
import json
import shutil
from pathlib import Path

import pytest

from centralq.cli import (
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    load_fixture,
    main,
    parse_table_csv,
    parse_table_json,
)
from centralq.quasigroup import CayleyTable, is_latin


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_group_c3(capsys):
    code, out, _ = run(capsys, "count", "--group", "C3", "--no-cache")
    assert code == EXIT_OK
    line = [l for l in out.splitlines() if l.startswith("3")][0]
    assert line.split() == ["3", "3/1", "C3", "2", "2", "4", "5", "4", "5"]


def test_count_group_c1(capsys):
    code, out, _ = run(capsys, "count", "--group", "C1", "--format", "json", "--no-cache")
    assert code == EXIT_OK
    rec = json.loads(out)[0]
    assert all(rec[f] == 1 for f in ("aut_order", "cq", "mq"))


def test_count_order_8(capsys):
    code, out, _ = run(capsys, "count", "--order", "8", "--format", "csv", "--no-cache")
    assert code == EXIT_OK
    rows = parse_table_csv(out)
    totals = [r for r in rows if r["descriptor"] is None]
    assert totals == [
        {
            "order": 8, "gap_id": None, "descriptor": None, "aut_order": None,
            "conj_classes": None, "pair_orbits": None, "cq": 385,
            "commuting_pair_orbits": None, "mq": 73,
        }
    ]


def test_count_group_c3xc3(capsys):
    code, out, _ = run(capsys, "count", "--group", "C3xC3", "--format", "json", "--no-cache")
    assert code == EXIT_OK
    rec = json.loads(out)[0]
    assert rec["cq"] == 183 and rec["mq"] == 68


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "count", "--group", "Q8", "--no-cache")
    assert code == EXIT_USAGE
    assert "error" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["count"])  # neither --group nor --order
    assert info.value.code == EXIT_USAGE


def test_budget_exit_code(capsys):
    code, _, err = run(capsys, "count", "--group", "C2^6", "--no-cache")
    assert code == EXIT_RESOURCE
    assert "20158709760" in err


def test_broken_worker_pool_exit_code(capsys, monkeypatch):
    import os

    from centralq import _engine

    # forked workers inherit the patch and die as if killed for memory
    monkeypatch.setattr(_engine, "count_class", lambda *args: os._exit(9))
    code, _, err = run(capsys, "count", "--group", "C2xC2", "--jobs", "2", "--no-cache")
    assert code == EXIT_RESOURCE
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_count_order_over_budget_marks_unknown(capsys):
    code, out, err = run(
        capsys, "count", "--order", "32", "--aut-budget", "1000",
        "--format", "csv", "--no-cache",
    )
    assert code == EXIT_RESOURCE
    rows = parse_table_csv(out)
    heavy = [r for r in rows if r["descriptor"] == "C2xC2xC2xC2xC2"][0]
    assert heavy["aut_order"] == 9999360  # the estimate is still printed
    assert heavy["cq"] is None
    totals = [r for r in rows if r["descriptor"] is None][0]
    assert totals["cq"] is None


def test_table_max_four_matches_fixture(capsys, fixture_groups, fixture_orders):
    code, out, _ = run(capsys, "table", "--max", "4", "--format", "csv", "--no-cache")
    assert code == EXIT_OK
    rows = parse_table_csv(out)
    group_rows = [r for r in rows if r["descriptor"]]
    assert [r["descriptor"] for r in group_rows] == ["C1", "C2", "C3", "C2xC2", "C4"]
    for r in group_rows:
        want = fixture_groups[r["descriptor"]]
        assert r["cq"] == want.cq and r["mq"] == want.mq
        assert r["gap_id"] == want.gap_id
    order_rows = [r for r in rows if r["descriptor"] is None]
    assert [r["order"] for r in order_rows] == [1, 2, 3, 4]
    assert order_rows[3]["cq"] == 19 and order_rows[3]["mq"] == 13


def test_table_max_one(capsys):
    code, out, _ = run(capsys, "table", "--max", "1", "--format", "csv", "--no-cache")
    assert code == EXIT_OK
    rows = parse_table_csv(out)
    assert len(rows) == 2  # the trivial group row and the order-1 totals


def test_table_csv_json_round_trip(capsys, tmp_path):
    code, csv_text, _ = run(capsys, "table", "--max", "6", "--format", "csv", "--no-cache")
    assert code == EXIT_OK
    code, json_text, _ = run(capsys, "table", "--max", "6", "--format", "json", "--no-cache")
    assert code == EXIT_OK
    assert parse_table_csv(csv_text) == parse_table_json(json_text)


def test_table_out_file(capsys, tmp_path):
    target = tmp_path / "t.csv"
    code, out, _ = run(
        capsys, "table", "--max", "2", "--format", "csv", "--no-cache", "--out", str(target)
    )
    assert code == EXIT_OK
    assert out == ""
    assert parse_table_csv(target.read_text())


def test_reps_c3(capsys):
    code, out, _ = run(capsys, "reps", "--group", "C3", "--no-cache")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert len(payload) == 5
    assert all(rec["medial"] for rec in payload)
    assert {(rec["phi"][0][0][0], rec["psi"][0][0][0], rec["c"][0]) for rec in payload} == {
        (1, 1, 0), (1, 2, 0), (2, 1, 0), (2, 2, 0), (2, 2, 1)
    }


def test_reps_c1(capsys):
    code, out, _ = run(capsys, "reps", "--group", "C1", "--no-cache")
    assert code == EXIT_OK
    assert len(json.loads(out)) == 1


def test_reps_klein_counts(capsys):
    code, out, _ = run(capsys, "reps", "--group", "C2xC2", "--no-cache")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert len(payload) == 15
    assert sum(rec["medial"] for rec in payload) == 9


def test_reps_emit_tables(capsys, tmp_path):
    outdir = tmp_path / "tables"
    code, _, err = run(
        capsys, "reps", "--group", "C3", "--emit-tables", str(outdir), "--no-cache"
    )
    assert code == EXIT_OK
    files = sorted(outdir.glob("*.txt"))
    assert len(files) == 5
    for f in files:
        assert is_latin(CayleyTable.from_text(f.read_text()))


def test_table_json_includes_order_27(capsys):
    code, out, _ = run(capsys, "table", "--max", "27", "--format", "json", "--no-cache")
    assert code == EXIT_OK
    rows = parse_table_json(out)
    c27row = [r for r in rows if r["descriptor"] == "C3xC3xC3"]
    assert c27row and c27row[0]["cq"] == 34321


def test_verify_small_range(capsys, tmp_path):
    code, out, _ = run(
        capsys, "verify", "--max", "16", "--no-cache",
    )
    assert code == EXIT_OK
    assert "0 mismatched" in out


def test_verify_max_one(capsys):
    code, out, _ = run(capsys, "verify", "--max", "1", "--no-cache")
    assert code == EXIT_OK


def test_verify_detects_mismatch(capsys, tmp_path):
    fixdir = tmp_path / "fixture"
    fixdir.mkdir()
    src = Path(__file__).resolve().parents[1] / "src" / "centralq" / "data"
    text = (src / "reference_groups.csv").read_text()
    rows = list(csv.reader(io.StringIO(text)))
    for row in rows:
        if row[2] == "C3":
            row[6] = "6"  # cq is really 5
    out_text = io.StringIO()
    csv.writer(out_text).writerows(rows)
    (fixdir / "reference_groups.csv").write_text(out_text.getvalue())
    shutil.copy(src / "reference_orders.csv", fixdir / "reference_orders.csv")

    code, out, _ = run(
        capsys, "verify", "--max", "4", "--fixture", str(fixdir), "--no-cache"
    )
    assert code == EXIT_MISMATCH
    assert "MISMATCH C3 cq" in out


def test_verify_missing_fixture(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--max", "4", "--fixture", str(tmp_path / "nope"))
    assert code == EXIT_USAGE


def test_verify_skips_unknown_cells(capsys, tmp_path):
    fixdir = tmp_path / "fixture"
    fixdir.mkdir()
    src = Path(__file__).resolve().parents[1] / "src" / "centralq" / "data"
    text = (src / "reference_groups.csv").read_text()
    rows = list(csv.reader(io.StringIO(text)))
    for row in rows:
        if row[2] == "C3":
            row[6] = "?"  # pretend cq of C3 were never established
    out_text = io.StringIO()
    csv.writer(out_text).writerows(rows)
    (fixdir / "reference_groups.csv").write_text(out_text.getvalue())
    shutil.copy(src / "reference_orders.csv", fixdir / "reference_orders.csv")

    code, out, _ = run(
        capsys, "verify", "--max", "3", "--fixture", str(fixdir), "--no-cache"
    )
    assert code == EXIT_OK
    assert "1 unknown in the table" in out


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("CENTRALQ_AUT_BUDGET", "3")
    code, _, err = run(capsys, "count", "--group", "C2xC2", "--no-cache")
    assert code == EXIT_RESOURCE
    assert "budget of 3" in err


def test_fixture_loads_and_is_consistent():
    groups, orders = load_fixture()
    assert len(groups) == 232
    assert [o.order for o in orders] == list(range(1, 128))
    by_order = {}
    for row in groups:
        by_order.setdefault(row.order, []).append(row)
    for orow in orders:
        rows = by_order[orow.order]
        if orow.cq is not None:
            assert sum(r.cq for r in rows) == orow.cq
        if orow.mq is not None:
            assert sum(r.mq for r in rows) == orow.mq


@pytest.mark.parametrize(
    "conj_classes,budget,code,line",
    [
        ("6", "20000", EXIT_OK, "0 mismatched"),
        ("7", "20000", EXIT_MISMATCH, "MISMATCH C2xC2xC2 conj_classes: computed 6"),
        ("6", "100", EXIT_OK, "skip C2xC2xC2 conj_classes: over budget"),
    ],
)
def test_verify_class_count_only_row(capsys, tmp_path, conj_classes, budget, code, line):
    # a row whose only enumerated cell is the class count takes the
    # conjugacy-classes path instead of a full group report
    fixdir = tmp_path / "fixture"
    fixdir.mkdir()
    src = Path(__file__).resolve().parents[1] / "src" / "centralq" / "data"
    rows = list(csv.reader(io.StringIO((src / "reference_groups.csv").read_text())))
    for row in rows:
        if row[2] == "C2xC2xC2":
            row[4] = conj_classes
            row[5:] = ["?"] * len(row[5:])
    out_text = io.StringIO()
    csv.writer(out_text).writerows(rows)
    (fixdir / "reference_groups.csv").write_text(out_text.getvalue())
    shutil.copy(src / "reference_orders.csv", fixdir / "reference_orders.csv")

    got, out, _ = run(
        capsys, "verify", "--max", "8", "--fixture", str(fixdir), "--no-cache",
        "--aut-budget", budget,
    )
    assert got == code
    assert line in out
