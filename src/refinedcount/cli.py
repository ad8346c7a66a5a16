"""Command-line front end for the counting engines and analysis checks.

Subcommands:

* ``count``      -- compute G(g, degree) with either engine (or both) and
                    cache the result in an append-only JSON-lines file.
* ``curve``      -- multiplicity report for a single curve description file.
* ``diagrams``   -- list the floor diagrams for a degree, one JSON per line.
* ``paths``      -- list the lattice paths for a degree, one JSON per line,
                    each with its two classical side multiplicities.
* ``analyze``    -- structural-law report for one computed polynomial.
* ``invariance`` -- ordering-independence and cross-engine agreement suite.

``count``, ``curve``, ``analyze`` and ``invariance`` each build one record
and print it through one emitter as a table, one JSON object or CSV rows.
``paths`` prints each path as the engine yields its id, without building
the list first.  A corrupt cache line, or a cache that cannot be written,
never fails a command: it is reported on stderr and the count is printed.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 unsupported
combination (e.g. the floor engine on a degree outside its two families),
141 the reader closed stdout early (128 + SIGPIPE).
All output is deterministic: identical invocations give identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

from .analysis import InvariantReport, analyze, canonical_spec, cross_validate
from .curves import (
    CurveCombinatorics,
    curve_multiplicities,
    property_report,
)
from .floors import (
    compute_G_floor,
    enumerate_diagrams,
    markings_count,
    refined_multiplicity,
)
from .geometry import (
    BalancedDegree,
    UnsupportedDegreeError,
    delta_invariant,
    dual_polygon,
    genus_max,
    parse_degree,
)
from .laurent import RefinedPoly, _json_int
from .paths import (
    DEFAULT_ORDER,
    MINUS,
    PLUS,
    LambdaOrder,
    _require_primitive,
    compute_G_path,
    get_engine,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as for a filter that signal killed

CACHE_ENV_VAR = "REFINED_COUNT_CACHE"
DEFAULT_CACHE = ".gcache.jsonl"
# Bump when an engine fix changes any count, so older entries stop being served.
CACHE_VERSION = 1


# -- result cache ---------------------------------------------------------------


def load_cache(path: Path) -> dict[tuple[str, int, str], dict]:
    """Map (canonical spec, genus, engine) -> newest entry; corrupt lines are skipped.

    The file is append-only, so the last well-formed entry for a key wins.
    A cache must never make the tool fail: anything unreadable is reported
    on stderr and ignored.  A well-formed entry written under another
    CACHE_VERSION, or none, is skipped silently and so gets recomputed.
    A missing cache, or a path that is not a file, holds no entries.
    """
    entries: dict[tuple[str, int, str], dict] = {}
    if not path.is_file():
        return entries
    # a byte that is not UTF-8 decodes to a lone surrogate, which fails to
    # encode inside the try below, so its line is reported as corrupt
    with path.open(encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                line.encode("utf-8")
                obj = json.loads(line)
                RefinedPoly.from_json_obj(obj["poly"])
                # only what append_cache writes: a bool or float would pass int() or ==
                key = (obj["spec"], _json_int(obj["genus"]), obj["engine"])
                _json_int(obj.get("version", 0))
                if not (isinstance(key[0], str) and isinstance(key[2], str)):
                    raise TypeError("spec and engine must be strings")
            except (ValueError, KeyError, TypeError) as exc:
                print(
                    f"warning: {path}:{lineno}: skipping corrupt cache line ({exc})",
                    file=sys.stderr,
                )
                continue
            if obj.get("version") == CACHE_VERSION:
                entries[key] = obj
    return entries


def append_cache(path: Path, spec: str, genus: int, engine: str, G: RefinedPoly) -> None:
    """Append one entry; a cache that cannot be written is reported on stderr."""
    entry = {
        "version": CACHE_VERSION,
        "spec": spec,
        "genus": genus,
        "engine": engine,
        "poly": G.to_json_obj(),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    try:
        with path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry) + "\n")
    except OSError as exc:
        print(f"warning: cache not written: {exc}", file=sys.stderr)


# -- shared helpers -------------------------------------------------------------


def _emit(fmt: str, table_lines: list[str], json_obj: dict, csv_rows: list[list]) -> None:
    """Print one record in the chosen format: table lines, one JSON object or CSV rows."""
    if fmt == "json":
        print(json.dumps(json_obj))
    elif fmt == "csv":
        csv.writer(sys.stdout, lineterminator="\n").writerows(csv_rows)
    else:
        print("\n".join(table_lines))


def _print_report(report: InvariantReport, fmt: str) -> int:
    delta = "-" if report.delta is None else report.delta
    table = [f"spec: {report.degree_spec}", f"genus: {report.genus}", f"G: {report.G}",
             f"delta: {delta}"]
    table += [f"check {c['name']}: {'pass' if c['pass'] else 'FAIL'} "
              f"(expected={c['expected']} actual={c['actual']})" for c in report.checks]
    keys = ["name", "expected", "actual", "pass"]
    rows = [keys] + [[c[k] for k in keys] for c in report.checks]
    _emit(fmt, table, report.to_json_obj(), rows)
    return EXIT_OK if report.all_pass() else EXIT_CHECK_FAILED


# -- subcommands ----------------------------------------------------------------


def _degree(args: argparse.Namespace) -> BalancedDegree:
    """The spec's degree; a genus above its genus_max is a usage error."""
    deg = parse_degree(args.spec)
    top = genus_max(deg)
    if args.genus > top:
        raise ValueError(f"genus {args.genus} exceeds genus_max {top} of {canonical_spec(deg)}")
    return deg


def cmd_count(args: argparse.Namespace) -> int:
    deg = _degree(args)
    lam = LambdaOrder.parse(args.lam)
    if args.engine in ("path", "both"):
        _require_primitive(deg)
    spec = canonical_spec(deg)

    path = Path(os.environ.get(CACHE_ENV_VAR, DEFAULT_CACHE))
    entries = load_cache(path)
    # an entry from --engine both was computed by both engines, which agreed
    cached = entries.get((spec, args.genus, args.engine)) or entries.get(
        (spec, args.genus, "both")
    )

    agreement: Optional[bool] = None
    if args.engine == "both":
        # Verification mode: always run both engines, never trust the cache
        # for the verdict.
        G_floor = compute_G_floor(deg, args.genus)
        G = compute_G_path(deg, args.genus, lam)
        agreement = G_floor == G
    elif cached is not None and not args.verify_cache:
        G = RefinedPoly.from_json_obj(cached["poly"])
    elif args.engine == "floor":
        G = compute_G_floor(deg, args.genus)
    else:
        G = compute_G_path(deg, args.genus, lam)
    if cached is None and agreement is not False:
        append_cache(path, spec, args.genus, args.engine, G)

    verify_failed = False
    if args.verify_cache and cached is not None:
        fresh_bytes = json.dumps(G.to_json_obj())
        cached_bytes = json.dumps(cached["poly"])
        if fresh_bytes == cached_bytes:
            print(f"cache: verified ({path})", file=sys.stderr)
        else:
            print(
                f"cache: MISMATCH for {spec} genus {args.genus}: "
                f"cached {cached_bytes} != recomputed {fresh_bytes}",
                file=sys.stderr,
            )
            verify_failed = True

    delta = delta_invariant(args.genus, deg)  # defined: _degree checked the genus
    eval_1 = G.evaluate(1)
    eval_m1 = G.evaluate(-1) if G.has_integer_powers() else None

    record: dict = {
        "spec": spec,
        "genus": args.genus,
        "engine": args.engine,
        "polynomial": str(G),
        "poly": G.to_json_obj(),
        "delta": str(delta),
        "eval_at_1": eval_1,
        "eval_at_minus_1": eval_m1,
    }
    table = [f"spec: {spec}", f"genus: {args.genus}", f"engine: {args.engine}", f"G: {G}",
             f"delta: {delta}", f"eval(1): {eval_1}"]
    if eval_m1 is not None:
        table.append(f"eval(-1): {eval_m1}")
    if agreement is not None:
        record["agreement"] = agreement
        table.append(f"agreement: {'ok' if agreement else 'MISMATCH'}")
    # csv writes None (no eval(-1)) as an empty field
    keys = ["spec", "genus", "engine", "polynomial", "delta", "eval_at_1", "eval_at_minus_1"]
    _emit(args.format, table, record, [keys, [record[k] for k in keys]])

    if agreement is False or verify_failed:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_curve(args: argparse.Namespace) -> int:
    text = Path(args.file).read_text(encoding="utf-8")
    curve = CurveCombinatorics.from_json(text)
    stats = curve_multiplicities(curve)
    checks = property_report(curve)
    stats_obj = stats.to_json_obj()
    keys = ["mu_C", "mu_R", "G", "alpha", "genus", "degree"]
    table = [f"{k}: {stats_obj[k]}" for k in keys]
    for c in checks:
        verdict = ("pass" if c.passed else "FAIL") if c.applicable else "n/a"
        suffix = f" ({c.detail})" if c.detail else ""
        table.append(f"check {c.name}: {verdict}{suffix}")
    json_obj = {"stats": stats_obj, "checks": [c.to_json_obj() for c in checks]}
    _emit(args.format, table, json_obj, [keys, [stats_obj[k] for k in keys]])

    failed = any(c.applicable and not c.passed for c in checks)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_diagrams(args: argparse.Namespace) -> int:
    deg = _degree(args)
    for D in enumerate_diagrams(deg, args.genus):
        obj = D.to_json_obj()
        obj["nu"] = markings_count(D)
        obj["multiplicity"] = str(refined_multiplicity(D))
        print(json.dumps(obj))
    return EXIT_OK


def cmd_paths(args: argparse.Namespace) -> int:
    deg = _degree(args)
    _require_primitive(deg)  # the engine takes the polygon, not the degree
    lam = LambdaOrder.parse(args.lam)
    engine = get_engine(dual_polygon(deg), lam)
    for ids in engine.path_id_tuples(args.genus, engine.kappa):
        ids = bytes(ids)
        obj = {
            "points": [list(engine.points[i]) for i in ids],
            "mu_plus": str(RefinedPoly.from_half_units(engine.mu_ids(ids, PLUS))),
            "mu_minus": str(RefinedPoly.from_half_units(engine.mu_ids(ids, MINUS))),
        }
        print(json.dumps(obj))
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    report = analyze(_degree(args), args.genus)
    return _print_report(report, args.format)


def cmd_invariance(args: argparse.Namespace) -> int:
    report = cross_validate(_degree(args), args.genus)
    return _print_report(report, args.format)


# -- argument parsing -----------------------------------------------------------


def _genus(text: str) -> int:
    """The --genus value: an int >= 0 (a negative genus is a usage error)."""
    try:
        g = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if g < 0:
        raise argparse.ArgumentTypeError(f"genus must be >= 0, got {g}")
    return g


def _add_common(sub: argparse.ArgumentParser, *, genus: bool = True, lam: bool = False,
                fmt: bool = False) -> None:
    if genus:
        sub.add_argument("--genus", type=_genus, default=0, help="target genus (default 0)")
    if lam:
        sub.add_argument(
            "--lambda",
            dest="lam",
            default=DEFAULT_ORDER.spec(),
            help="point ordering, e.g. lex:+x,+y or lex:-y,+x; G does not depend on it, "
                 "so count serves a cached G for every order (--verify-cache recomputes "
                 "in this one)",
        )
    if fmt:
        sub.add_argument(
            "--format",
            choices=("table", "json", "csv"),
            default="table",
            help="output format (default table)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refined-count",
        description="Refined counts of planar tropical curves, two engines, exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="compute G(genus, degree)")
    p_count.add_argument("spec", help="degree spec, e.g. P2:d=3 or P1xP1:d=2,r=2")
    p_count.add_argument(
        "--engine",
        choices=("floor", "path", "both"),
        default="path",
        help="counting engine (default path; both compares them)",
    )
    p_count.add_argument(
        "--verify-cache",
        action="store_true",
        help="recompute and compare byte-for-byte against any cached value",
    )
    _add_common(p_count, lam=True, fmt=True)
    p_count.set_defaults(func=cmd_count)

    p_curve = sub.add_parser("curve", help="multiplicity report for a curve file")
    p_curve.add_argument("file", help="JSON curve description")
    _add_common(p_curve, genus=False, fmt=True)
    p_curve.set_defaults(func=cmd_curve)

    p_diagrams = sub.add_parser("diagrams", help="list floor diagrams, one JSON per line")
    p_diagrams.add_argument("spec")
    _add_common(p_diagrams)
    p_diagrams.set_defaults(func=cmd_diagrams)

    p_paths = sub.add_parser("paths", help="list lattice paths, one JSON per line")
    p_paths.add_argument("spec")
    _add_common(p_paths, lam=True)
    p_paths.set_defaults(func=cmd_paths)

    p_analyze = sub.add_parser("analyze", help="structural-law report for one count")
    p_analyze.add_argument("spec")
    _add_common(p_analyze, fmt=True)
    p_analyze.set_defaults(func=cmd_analyze)

    p_inv = sub.add_parser(
        "invariance", help="ordering-independence and engine-agreement checks"
    )
    p_inv.add_argument("spec")
    _add_common(p_inv, fmt=True)
    p_inv.set_defaults(func=cmd_invariance)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has already printed its message; normalize the exit code
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader gone early shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head` does): send what is still
        # buffered to the null device, so nothing is printed at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except UnsupportedDegreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
