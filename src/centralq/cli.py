"""Command line front end.

Subcommands:
    count   -- counts for one group or one order
    table   -- the full per-group / per-order table up to a maximum order
    reps    -- the classified triples (and optionally Cayley tables) of a group
    verify  -- recompute the bundled reference table and compare cell by cell

Exit codes: 0 success, 1 usage or parse error, 2 resource limit exceeded
(including a --jobs worker that died), 3 verification mismatch.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from . import counting
from .abelian import parse_group
from .counting import (
    DEFAULT_AUT_BUDGET,
    GroupReport,
    OrderReport,
    ReportCache,
    cq_mq_of_order,
    group_report,
)
from .endo import ResourceLimitError
from .quasigroup import build_quasigroup

log = logging.getLogger(__name__)

CSV_COLUMNS = (
    "order",
    "gap_id",
    "descriptor",
    "aut_order",
    "conj_classes",
    "pair_orbits",
    "cq",
    "commuting_pair_orbits",
    "mq",
)
_CELL_FIELDS = CSV_COLUMNS[3:]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RESOURCE = 2
EXIT_MISMATCH = 3


@dataclass
class FixtureRow:
    """One reference-table row; None cells are the table's unknown entries."""

    order: int
    gap_id: str | None
    descriptor: str
    aut_order: int | None
    conj_classes: int | None
    pair_orbits: int | None
    cq: int | None
    commuting_pair_orbits: int | None
    mq: int | None

    @property
    def known_cells(self) -> dict[str, int]:
        return {
            f: getattr(self, f) for f in _CELL_FIELDS if getattr(self, f) is not None
        }


@dataclass
class OrderFixtureRow:
    order: int
    cq: int | None
    mq: int | None


def _cell(text: str) -> int | None:
    text = text.strip()
    return None if text in ("?", "") else int(text)


def load_fixture(path: str | Path | None = None):
    """The bundled (or an explicit) reference table.

    Returns (group_rows, order_rows); group rows are keyed by descriptor,
    order rows carry only the totals.
    """
    base = resources.files("centralq") / "data" if path is None else Path(path)
    groups_text = (base / "reference_groups.csv").read_text()
    orders_text = (base / "reference_orders.csv").read_text()

    group_rows = [FixtureRow(**rec) for rec in parse_table_csv(groups_text)]
    listed = set()
    for row in group_rows:
        # a blank descriptor reads as None, which parse_group rejects as empty
        group = parse_group(row.descriptor or "")
        if group.order != row.order:
            raise ValueError(f"fixture row {row.gap_id}: descriptor/order mismatch")
        if group.descriptor in listed:
            raise ValueError(f"fixture lists {group.descriptor} twice")
        listed.add(group.descriptor)
    order_rows = [
        OrderFixtureRow(int(r["order"]), _cell(r["cq"]), _cell(r["mq"]))
        for r in csv.DictReader(io.StringIO(orders_text))
    ]
    seen = set()
    for row in order_rows:
        if row.order in seen:
            raise ValueError(f"fixture lists order {row.order} twice")
        seen.add(row.order)
    return group_rows, order_rows


def gap_id_lookup() -> dict[str, str]:
    rows, _ = load_fixture()
    return {r.descriptor: r.gap_id for r in rows if r.gap_id}


# ---------------------------------------------------------------------------
# row records shared by table emission and verification


def _report_record(order: int, rep: GroupReport, gap_ids: dict[str, str]) -> dict:
    rec = {
        "order": order,
        "gap_id": gap_ids.get(rep.descriptor),
        "descriptor": rep.descriptor,
    }
    rec.update({f: getattr(rep, f) for f in _CELL_FIELDS})
    return rec


def _order_record(report: OrderReport) -> dict:
    rec = {c: None for c in CSV_COLUMNS}
    rec["order"] = report.n
    rec["cq"] = report.cq
    rec["mq"] = report.mq
    return rec


def emit_csv(records: list[dict]) -> str:
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(CSV_COLUMNS)
    for rec in records:
        is_order_row = rec["descriptor"] is None
        vals = []
        for c in CSV_COLUMNS:
            v = rec[c]
            if v is not None:
                vals.append(v)
            elif c in ("gap_id", "descriptor"):
                vals.append("")
            elif is_order_row and c not in ("cq", "mq"):
                vals.append("")  # not applicable on total rows
            else:
                vals.append("?")
        w.writerow(vals)
    return out.getvalue()


def parse_table_csv(text: str) -> list[dict]:
    records = []
    for rec in csv.DictReader(io.StringIO(text)):
        row = {
            "order": int(rec["order"]),
            "gap_id": rec["gap_id"] or None,
            "descriptor": rec["descriptor"] or None,
        }
        row.update({f: _cell(rec[f]) for f in _CELL_FIELDS})
        records.append(row)
    return records


def emit_json(records: list[dict]) -> str:
    return json.dumps(records, indent=1) + "\n"


def parse_table_json(text: str) -> list[dict]:
    return json.loads(text)


def emit_text(records: list[dict]) -> str:
    headers = list(CSV_COLUMNS)
    rows = [
        ["" if rec[c] is None else str(rec[c]) for c in CSV_COLUMNS] for rec in records
    ]
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for r in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


_EMITTERS = {"csv": emit_csv, "json": emit_json, "table": emit_text}


# ---------------------------------------------------------------------------
# subcommands


class _RunMemo:
    """The report store under --no-cache: each group is counted once per run
    and kept in memory only, so nothing is read from or written to disk."""

    hits = 0  # reports read from disk

    def __init__(self):
        self._reports: dict[str, GroupReport] = {}

    def get(self, descriptor: str) -> GroupReport | None:
        return self._reports.get(descriptor)

    def put(self, report: GroupReport) -> None:
        self._reports[report.descriptor] = report


def _report_cache(args) -> ReportCache | _RunMemo:
    return _RunMemo() if args.no_cache else ReportCache(args.cache_dir)


def _write_output(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _records_for_order(n: int, report: OrderReport, gap_ids) -> list[dict]:
    recs = [_report_record(n, rep, gap_ids) for rep in report.per_group]
    recs.sort(key=lambda r: (r["order"], r["descriptor"]))
    recs.append(_order_record(report))
    return recs


def _budget_notes(reports: list[GroupReport]) -> list[str]:
    return [rep.note for rep in reports if not rep.complete and rep.note]


def cmd_count(args) -> int:
    cache = _report_cache(args)
    gap_ids = gap_id_lookup()
    if args.group:
        group = parse_group(args.group)
        rep = group_report(group, budget=args.aut_budget, jobs=args.jobs, cache=cache)
        records = [_report_record(group.order, rep, gap_ids)]
        notes = _budget_notes([rep])
        incomplete = not rep.complete
    else:
        report = cq_mq_of_order(
            args.order, budget=args.aut_budget, jobs=args.jobs, cache=cache
        )
        records = _records_for_order(args.order, report, gap_ids)
        notes = _budget_notes(report.per_group)
        incomplete = report.cq is None
    _write_output(_EMITTERS[args.format](records), args.out)
    if incomplete:
        for note in notes:
            print(note, file=sys.stderr)
        print("some values exceeded the automorphism budget", file=sys.stderr)
        return EXIT_RESOURCE
    return EXIT_OK


def cmd_table(args) -> int:
    cache = _report_cache(args)
    gap_ids = gap_id_lookup()
    records = []
    notes = []
    for n in range(1, args.max + 1):
        report = cq_mq_of_order(n, budget=args.aut_budget, jobs=args.jobs, cache=cache)
        records.extend(_records_for_order(n, report, gap_ids))
        notes.extend(_budget_notes(report.per_group))
    _write_output(_EMITTERS[args.format](records), args.out)
    if notes:
        for note in notes:
            print(note, file=sys.stderr)
        print("some rows exceeded the automorphism budget", file=sys.stderr)
        return EXIT_RESOURCE
    return EXIT_OK


def cmd_reps(args) -> int:
    group = parse_group(args.group)
    triples = counting.classify_representatives(
        group, budget=args.aut_budget, jobs=args.jobs
    )
    payload = [
        {
            "phi": t.phi.block_lists(),
            "psi": t.psi.block_lists(),
            "c": list(t.c),
            "medial": t.medial,
        }
        for t in triples
    ]
    _write_output(json.dumps(payload, indent=1) + "\n", args.out)
    if args.emit_tables:
        outdir = Path(args.emit_tables)
        outdir.mkdir(parents=True, exist_ok=True)
        for k, t in enumerate(triples):
            table = build_quasigroup(t)
            name = f"{group.descriptor}_rep{k:05d}.txt"
            (outdir / name).write_text(table.to_text())
        print(f"wrote {len(triples)} tables to {outdir}", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        group_rows, order_rows = load_fixture(args.fixture)
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot load fixture: {exc}", file=sys.stderr)
        return EXIT_USAGE
    cache = _report_cache(args)
    # a row may spell its group in any factor order; reports use the canonical one
    fixture = {parse_group(r.descriptor).descriptor: r for r in group_rows}
    totals = {r.order: r for r in order_rows}
    matched = mismatched = skipped_unknown = skipped_budget = 0

    def compare(desc: str, cell: str, want, got, why: str) -> None:
        nonlocal matched, mismatched, skipped_unknown, skipped_budget
        if want is None:
            skipped_unknown += 1
        elif got is None:
            skipped_budget += 1
            print(f"skip {desc} {cell}: {why}")
        elif want == got:
            matched += 1
        else:
            mismatched += 1
            print(f"MISMATCH {desc} {cell}: computed {got}, table says {want}")

    for n in sorted({r.order for r in group_rows} | totals.keys()):
        if n > args.max:
            break
        report = cq_mq_of_order(n, budget=args.aut_budget, jobs=args.jobs, cache=cache)
        for rep in report.per_group:
            row = fixture.get(rep.descriptor)  # an unlisted group is all unknown
            for f in _CELL_FIELDS:
                compare(rep.descriptor, f, getattr(row, f, None), getattr(rep, f), "over budget")
        for f in ("cq", "mq"):
            compare(f"order {n}", f, getattr(totals.get(n), f, None), getattr(report, f),
                    "some group unavailable")

    print(
        f"verified {matched + mismatched} cells: {matched} matched, {mismatched} mismatched, "
        f"{skipped_unknown} unknown in the table, {skipped_budget} skipped over budget"
    )
    print(f"{cache.hits} group reports read from the cache")
    return EXIT_MISMATCH if mismatched else EXIT_OK


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser) -> None:
    # a string default goes through type=int, so a malformed variable is a usage error
    p.add_argument(
        "--aut-budget",
        type=int,
        default=os.environ.get("CENTRALQ_AUT_BUDGET", DEFAULT_AUT_BUDGET),
        help="refuse automorphism groups larger than this (default %(default)s)",
    )
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p.add_argument("--cache-dir", default=None, help="report cache directory")
    p.add_argument("--no-cache", action="store_true", help="disable the report cache")
    p.add_argument("--out", default=None, help="write output to a file")
    p.add_argument("-v", "--verbose", action="count", default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="centralq", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="counts for one group or one order")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--group", help="group descriptor, e.g. C4xC2 or C2^5")
    target.add_argument("--order", type=int, help="sum over all groups of this order")
    p.add_argument("--format", choices=sorted(_EMITTERS), default="table")
    _add_common(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("table", help="emit the table of all orders up to --max")
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--format", choices=sorted(_EMITTERS), default="table")
    _add_common(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("reps", help="classified triples for one group")
    p.add_argument("--group", required=True)
    p.add_argument(
        "--emit-tables",
        metavar="DIR",
        help="also write each representative's Cayley table into DIR",
    )
    _add_common(p)
    p.set_defaults(func=cmd_reps)

    p = sub.add_parser("verify", help="recompute the bundled table and compare")
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--fixture", help="directory with alternative fixture CSV files")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"argument --jobs: must be at least 1, got {args.jobs}")
    # table and verify: a bound below 1 would check no cell and still exit 0
    if getattr(args, "max", 1) < 1:
        parser.error(f"argument --max: must be at least 1, got {args.max}")
    # CENTRALQ_AUT_BUDGET arrives here too, as the option's default
    if args.aut_budget < 1:
        parser.error(f"argument --aut-budget: must be at least 1, got {args.aut_budget}")
    level = logging.WARNING
    if args.verbose == 1:
        level = logging.INFO
    elif args.verbose >= 2:
        level = logging.DEBUG
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except BrokenProcessPool:
        print(
            "error: a --jobs worker process died (often out of memory); "
            "retry with fewer jobs",
            file=sys.stderr,
        )
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # an --out or --cache-dir path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
