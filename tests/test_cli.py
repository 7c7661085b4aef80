import csv
import hashlib
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
    build_parser,
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


@pytest.mark.parametrize("desc", ["C0", "C0xC2", "C6^0xC3"])
def test_zero_order_or_power_is_a_usage_error(capsys, desc):
    code, out, err = run(capsys, "count", "--group", desc, "--no-cache")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and "must be at least 1" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["count"])  # neither --group nor --order
    assert info.value.code == EXIT_USAGE


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_a_usage_error(capsys, jobs):
    with pytest.raises(SystemExit) as info:
        main(["count", "--group", "C2xC2", "--jobs", jobs, "--no-cache"])
    assert info.value.code == EXIT_USAGE
    assert f"argument --jobs: must be at least 1, got {jobs}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["table", "verify"])
@pytest.mark.parametrize("bound", ["0", "-2"])
def test_max_below_one_is_a_usage_error(capsys, command, bound):
    with pytest.raises(SystemExit) as info:
        main([command, "--max", bound, "--no-cache"])
    assert info.value.code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and f"argument --max: must be at least 1, got {bound}" in err


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_budget_below_one_is_a_usage_error(capsys, budget):
    with pytest.raises(SystemExit) as info:
        main(["count", "--group", "C2xC2", "--aut-budget", budget, "--no-cache"])
    assert info.value.code == EXIT_USAGE
    assert f"argument --aut-budget: must be at least 1, got {budget}" in capsys.readouterr().err


def test_budget_env_var_below_one_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("CENTRALQ_AUT_BUDGET", "-5")
    with pytest.raises(SystemExit) as info:
        main(["count", "--group", "C2xC2", "--no-cache"])
    assert info.value.code == EXIT_USAGE
    assert "argument --aut-budget: must be at least 1, got -5" in capsys.readouterr().err


def test_budget_exit_code(capsys):
    code, _, err = run(capsys, "count", "--group", "C2^6", "--no-cache")
    assert code == EXIT_RESOURCE
    assert "20158709760" in err


def test_reps_over_budget_exit_code(capsys):
    code, out, err = run(capsys, "reps", "--group", "C2^5", "--aut-budget", "1000", "--no-cache")
    assert code == EXIT_RESOURCE
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "9999360 elements, over the budget of 1000" in err
    assert "Traceback" not in err


def test_table_over_budget_exit_code(capsys):
    code, out, err = run(capsys, "table", "--max", "4", "--aut-budget", "1", "--no-cache")
    assert code == EXIT_RESOURCE
    # C2xC2's row is printed without its counts; cyclic prime power rows come
    # from the closed form, which builds no automorphism group
    assert err.splitlines() == [
        "automorphism group of C2xC2 has 6 elements, over the budget of 1",
        "some rows exceeded the automorphism budget",
    ]
    row = [l.split() for l in out.splitlines() if "C2xC2" in l]
    assert row == [["4", "4/2", "C2xC2", "6"]]


def test_broken_worker_pool_exit_code(capsys, monkeypatch):
    import os

    from centralq import _engine

    # two CPUs, so the pool runs; forked workers inherit the patch and die
    # as if killed for memory
    monkeypatch.setattr(_engine, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(_engine, "count_class", lambda *args: os._exit(9))
    code, _, err = run(capsys, "count", "--group", "C2xC2", "--jobs", "2", "--no-cache")
    assert code == EXIT_RESOURCE
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_unwritable_out_path_is_one_error_line(capsys, tmp_path):
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, "count", "--group", "C2xC2", "--no-cache", "--out", str(target))
    assert code == EXIT_USAGE and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_cache_dir_naming_a_file_is_one_error_line(capsys, tmp_path):
    # the count finishes first; storing its report then fails
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("")
    code, _, err = run(capsys, "count", "--group", "C2xC2", "--cache-dir", str(not_a_dir))
    assert code == EXIT_USAGE
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


@pytest.mark.parametrize(
    "desc,digest",
    [
        ("C2xC2", "c2cddc757c983cc445b7671693a912c5"),
        ("C3xC3", "e989734a120dbfe46d0c38fc1e7c99c2"),
        ("C4xC2xC3", "1c822a777186e8f7a81640e22e7b62cc"),  # two primes
    ],
)
def test_reps_output_bytes_are_pinned(capsys, desc, digest):
    # the printed matrices are read off each member's generator images
    code, out, _ = run(capsys, "reps", "--group", desc, "--no-cache")
    assert code == EXIT_OK
    assert hashlib.md5(out.encode()).hexdigest() == digest


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


_DATA = Path(__file__).resolve().parents[1] / "src" / "centralq" / "data"


def _keep(rows):
    return rows


def edited_fixture(tmp_path, edit, edit_orders=_keep) -> str:
    """A fixture directory: the shipped group rows passed through edit and
    the shipped order totals through edit_orders, functions from CSV rows
    to CSV rows."""
    fixdir = tmp_path / "fixture"
    fixdir.mkdir()
    for name, fn in [("reference_groups.csv", edit), ("reference_orders.csv", edit_orders)]:
        rows = list(csv.reader(io.StringIO((_DATA / name).read_text())))
        out_text = io.StringIO()
        csv.writer(out_text).writerows(fn(rows))
        (fixdir / name).write_text(out_text.getvalue())
    return str(fixdir)


def set_cell(desc: str, col: int, value: str):
    def edit(rows):
        for row in rows:
            if row[2] == desc:
                row[col] = value
        return rows

    return edit


def test_verify_small_range(capsys, tmp_path):
    code, out, _ = run(
        capsys, "verify", "--max", "16", "--no-cache",
    )
    assert code == EXIT_OK
    assert "0 mismatched" in out


def test_verify_reports_cache_reads(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    reads = []
    for _ in range(2):
        code, out, _ = run(capsys, "verify", "--max", "8", "--cache-dir", cache)
        assert code == EXIT_OK
        summary, last = out.splitlines()[-2:]
        assert " 0 mismatched" in summary
        reads.append(int(last.removesuffix(" group reports read from the cache")))
    assert reads[0] == 0
    assert reads[1] > 0


def test_verify_max_one(capsys):
    code, out, _ = run(capsys, "verify", "--max", "1", "--no-cache")
    assert code == EXIT_OK


def test_verify_detects_mismatch(capsys, tmp_path):
    fixdir = edited_fixture(tmp_path, set_cell("C3", 6, "6"))  # cq is really 5
    code, out, _ = run(capsys, "verify", "--max", "4", "--fixture", fixdir, "--no-cache")
    assert code == EXIT_MISMATCH
    assert "MISMATCH C3 cq" in out


def test_verify_missing_fixture(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--max", "4", "--fixture", str(tmp_path / "nope"))
    assert code == EXIT_USAGE


def _order_8_twice(rows):
    # a second order-8 row before the real one, which would otherwise win
    at = next(i for i, row in enumerate(rows) if row[0] == "8")
    return rows[:at] + [["8", "386", "73"]] + rows[at:]


@pytest.mark.parametrize(
    "edit,edit_orders,error",
    [
        (set_cell("C3", 2, ""), _keep, "empty group descriptor"),
        # each row is compared under its group's canonical descriptor
        (
            lambda rows: rows + [["8", "", "C2xC4"] + ["?"] * 6],
            _keep,
            "fixture lists C4xC2 twice",
        ),
        (_keep, _order_8_twice, "fixture lists order 8 twice"),
    ],
    ids=["blank", "twice", "order-twice"],
)
def test_verify_malformed_fixture_rows(capsys, tmp_path, edit, edit_orders, error):
    fixdir = edited_fixture(tmp_path, edit, edit_orders)
    code, out, err = run(capsys, "verify", "--max", "8", "--fixture", fixdir, "--no-cache")
    assert code == EXIT_USAGE and out == ""
    assert err == f"cannot load fixture: {error}\n"


def test_verify_skips_unknown_cells(capsys, tmp_path):
    # pretend cq of C3 were never established
    fixdir = edited_fixture(tmp_path, set_cell("C3", 6, "?"))
    code, out, _ = run(capsys, "verify", "--max", "3", "--fixture", fixdir, "--no-cache")
    assert code == EXIT_OK
    assert "1 unknown in the table" in out


VERIFY_32_AT_BUDGET_50000 = """\
skip C2xC2xC2xC2xC2 conj_classes: over budget
skip C2xC2xC2xC2xC2 pair_orbits: over budget
skip C2xC2xC2xC2xC2 cq: over budget
skip C2xC2xC2xC2xC2 commuting_pair_orbits: over budget
skip C2xC2xC2xC2xC2 mq: over budget
skip order 32 cq: some group unavailable
skip order 32 mq: some group unavailable
verified 387 cells: 387 matched, 0 mismatched, 0 unknown in the table, 7 skipped over budget
0 group reports read from the cache
"""


def test_verify_stdout_through_order_32(capsys):
    # the C2^5 row is refused at this budget; its aut_order is still checked
    code, out, _ = run(capsys, "verify", "--max", "32", "--no-cache", "--aut-budget", "50000")
    assert code == EXIT_OK
    assert out == VERIFY_32_AT_BUDGET_50000


def test_verify_reads_any_factor_order(capsys, tmp_path):
    fixdir = edited_fixture(tmp_path, set_cell("C4xC2", 2, "C2xC4"))
    shipped = run(capsys, "verify", "--max", "8", "--no-cache")
    spelled = run(capsys, "verify", "--max", "8", "--fixture", fixdir, "--no-cache")
    assert spelled == shipped
    assert shipped[0] == EXIT_OK and "82 matched" in shipped[1]


def test_verify_unlisted_group_is_unknown(capsys, tmp_path):
    # C3's six cells read as unknown; the order-3 totals are still compared
    fixdir = edited_fixture(tmp_path, lambda rows: [r for r in rows if r[2] != "C3"])
    code, out, _ = run(capsys, "verify", "--max", "3", "--fixture", fixdir, "--no-cache")
    assert code == EXIT_OK
    assert out.splitlines()[0] == (
        "verified 18 cells: 18 matched, 0 mismatched, 6 unknown in the table, "
        "0 skipped over budget"
    )


def test_no_cache_counts_each_group_once_per_run(capsys, monkeypatch):
    from collections import Counter

    from centralq import counting

    calls = Counter()
    enumerate_group = counting.enumerate_group

    def counted(group, **kw):
        calls[group.descriptor] += 1
        return enumerate_group(group, **kw)

    monkeypatch.setattr(counting, "enumerate_group", counted)
    code, _, _ = run(capsys, "table", "--max", "12", "--no-cache")
    assert code == EXIT_OK
    # C2xC2 is a component of orders 4 and 12
    assert calls["C2xC2"] == 1 and set(calls.values()) == {1}


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("CENTRALQ_AUT_BUDGET", "3")
    code, _, err = run(capsys, "count", "--group", "C2xC2", "--no-cache")
    assert code == EXIT_RESOURCE
    assert "budget of 3" in err


def test_malformed_budget_env_var_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("CENTRALQ_AUT_BUDGET", "abc")
    build_parser()  # the variable is read as the option's default, not parsed here
    with pytest.raises(SystemExit) as exc:
        main(["count", "--group", "C2xC2", "--no-cache"])
    assert exc.value.code == EXIT_USAGE
    assert "argument --aut-budget: invalid int value: 'abc'" in capsys.readouterr().err


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
    # a row whose only enumerated cell is the class count still gets a full
    # group report
    def edit(rows):
        for row in rows:
            if row[2] == "C2xC2xC2":
                row[4] = conj_classes
                row[5:] = ["?"] * len(row[5:])
        return rows

    fixdir = edited_fixture(tmp_path, edit)
    got, out, _ = run(
        capsys, "verify", "--max", "8", "--fixture", fixdir, "--no-cache",
        "--aut-budget", budget,
    )
    assert got == code
    assert line in out
    # within the budget that report also lets the order-8 totals be compared
    assert ("0 skipped over budget" in out) == (budget == "20000")
