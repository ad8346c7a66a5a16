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
the list first.  A corrupt cache line, or a cache that cannot be read or
written, never fails a command: it is reported on stderr and the count is
printed.

Exit codes: 0 success, 1 check failure, 2 usage error (an unreadable curve
file among them), 3 unsupported combination (e.g. the floor engine on a
degree that is not one of its trapezoids), 74 any other I/O error, such as
a full disk under stdout (sysexits' EX_IOERR), 141 the reader closed stdout
early (128 + SIGPIPE).
All output is deterministic: identical invocations give identical bytes.
``main`` builds its argument parser on the first call and reuses it in later
calls of the same process; a one-shot command still builds it once.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from pathlib import Path
from typing import Optional

from .analysis import analyze, canonical_spec, cross_validate
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
    genus_max,
    parse_degree,
)
from .laurent import RefinedPoly, _json_int
from .paths import (
    DEFAULT_ORDER,
    MINUS,
    PLUS,
    LambdaOrder,
    compute_G_path,
    engine_for,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3
EXIT_IO = 74  # sysexits' EX_IOERR
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as for a filter that signal killed

CACHE_ENV_VAR = "REFINED_COUNT_CACHE"
DEFAULT_CACHE = ".gcache.jsonl"
# Bump when an engine fix changes any count, so older entries stop being served.
CACHE_VERSION = 1

# count's fields, record key -> table label; the keys are its CSV header
COUNT_FIELDS = {"spec": "spec", "genus": "genus", "engine": "engine", "polynomial": "G",
                "delta": "delta", "eval_at_1": "eval(1)", "eval_at_minus_1": "eval(-1)"}


# -- result cache ---------------------------------------------------------------


def load_cache(path: Path) -> dict[tuple[str, int, str], RefinedPoly]:
    """Map (canonical spec, genus, engine) -> newest entry's G; corrupt lines are skipped.

    The file is append-only, so the last well-formed entry for a key wins.
    It is read as the bytes append_cache writes: one JSON object per line,
    in strict UTF-8, so a line that is not UTF-8 is corrupt.  A line is
    well-formed only if its polynomial is written exactly as append_cache
    writes it (RefinedPoly.from_json_obj keeps terms only if to_json_obj
    writes them back); so two entries hold the same G exactly when their
    ``poly`` bytes are equal.  Keys that append_cache does not write are
    ignored.
    A cache must never make the tool fail: anything unreadable is reported
    on stderr and ignored, and a file that cannot be read holds no entries.
    A well-formed entry written under another CACHE_VERSION, or none, is
    skipped silently and so gets recomputed.
    A missing cache, or a path that is not a file, holds no entries.
    """
    entries: dict[tuple[str, int, str], RefinedPoly] = {}
    if not path.is_file():
        return entries
    try:
        with path.open("rb") as fh:
            for lineno, line in enumerate(map(bytes.strip, fh), start=1):
                if not line:
                    continue
                try:
                    # deeply nested brackets make json.loads raise RecursionError
                    obj = json.loads(line.decode())
                    G = RefinedPoly.from_json_obj(obj["poly"])
                    # both engines count weight-one ends only, so G has integer powers
                    if not G.has_integer_powers():
                        raise ValueError("half-integer power")
                    # only what append_cache writes: a bool or float would pass int() or ==
                    key = (obj["spec"], _json_int(obj["genus"]), obj["engine"])
                    _json_int(obj.get("version", 0))
                    if not (isinstance(key[0], str) and isinstance(key[2], str)):
                        raise TypeError("spec and engine must be strings")
                except (ValueError, KeyError, TypeError, RecursionError) as exc:
                    print(
                        f"warning: {path}:{lineno}: skipping corrupt cache line ({exc})",
                        file=sys.stderr,
                    )
                    continue
                if obj.get("version") == CACHE_VERSION:
                    entries[key] = G
    except OSError as exc:
        print(f"warning: cache not read: {exc}", file=sys.stderr)
        return {}
    return entries


def append_cache(path: Path, spec: str, genus: int, engine: str, G: RefinedPoly) -> None:
    """Append one entry; a cache that cannot be written is reported on stderr."""
    entry = {
        "version": CACHE_VERSION,
        "spec": spec,
        "genus": genus,
        "engine": engine,
        "poly": G.to_json_obj(),
    }
    try:
        with path.open("ab+") as fh:
            # a last line cut short (a writer killed mid-line) must not swallow this entry
            if fh.tell() and os.pread(fh.fileno(), 1, fh.tell() - 1) != b"\n":
                fh.write(b"\n")
            fh.write(json.dumps(entry).encode() + b"\n")
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
    spec = canonical_spec(deg)

    # an empty variable means the default, not the current directory
    path = Path(os.environ.get(CACHE_ENV_VAR) or DEFAULT_CACHE)
    entries = load_cache(path)
    # an entry from --engine both was computed by both engines, which agreed
    cached = entries.get((spec, args.genus, args.engine), entries.get((spec, args.genus, "both")))

    agreement: Optional[bool] = None
    if args.engine == "both":
        # Verification mode: always run both engines, never trust the cache
        # for the verdict.  The path engine runs first, so its gates (a
        # primitive degree, at most MAX_POINTS points) refuse before any
        # floor work.
        G = compute_G_path(deg, args.genus, lam)
        agreement = compute_G_floor(deg, args.genus) == G
    elif cached is not None and not args.verify_cache:
        G = cached
    elif args.engine == "floor":
        G = compute_G_floor(deg, args.genus)
    else:
        G = compute_G_path(deg, args.genus, lam)
    if cached is None and agreement is not False:
        append_cache(path, spec, args.genus, args.engine, G)

    verify_failed = False
    if args.verify_cache and cached is not None:
        # the cached line is canonical, so equal polynomials are equal bytes
        if G == cached:
            print(f"cache: verified ({path})", file=sys.stderr)
        else:
            print(
                f"cache: MISMATCH for {spec} genus {args.genus}: "
                f"cached {cached.to_json()} != recomputed {G.to_json()}",
                file=sys.stderr,
            )
            verify_failed = True

    record: dict = {
        "spec": spec,
        "genus": args.genus,
        "engine": args.engine,
        "polynomial": str(G),
        "poly": G.to_json_obj(),
        "delta": str(delta_invariant(args.genus, deg)),  # defined: _degree checked the genus
        "eval_at_1": G.evaluate(1),
        "eval_at_minus_1": G.evaluate(-1),
    }
    table = [f"{label}: {record[key]}" for key, label in COUNT_FIELDS.items()]
    fields = list(COUNT_FIELDS)
    if agreement is not None:
        record["agreement"] = agreement
        table.append(f"agreement: {'ok' if agreement else 'MISMATCH'}")
        fields.append("agreement")
    _emit(args.format, table, record, [fields, [record[k] for k in fields]])

    if agreement is False or verify_failed:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_curve(args: argparse.Namespace) -> int:
    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(str(exc)) from exc  # a bad argument, not a failing device
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
    # the multiplicity depends only on the weight multiset, which few diagrams vary
    multiplicities: dict[tuple[int, ...], str] = {}
    for D in enumerate_diagrams(deg, args.genus):
        obj = D.to_json_obj()
        obj["nu"] = markings_count(D)
        weights = tuple(sorted(w for _, _, w in D.elevators))
        mult = multiplicities.get(weights)
        if mult is None:
            mult = multiplicities[weights] = str(refined_multiplicity(D))
        obj["multiplicity"] = mult
        print(json.dumps(obj))
    return EXIT_OK


def cmd_paths(args: argparse.Namespace) -> int:
    engine = engine_for(_degree(args), LambdaOrder.parse(args.lam))
    for ids in engine.path_id_tuples(args.genus, engine.kappa):
        ids = bytes(ids)
        obj = {
            "points": [list(engine.points[i]) for i in ids],
            "mu_plus": str(RefinedPoly.from_half_units(engine.mu_ids(ids, PLUS))),
            "mu_minus": str(RefinedPoly.from_half_units(engine.mu_ids(ids, MINUS))),
        }
        print(json.dumps(obj))
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    """``analyze`` or ``invariance``: the subcommand's report on one count."""
    # looked up per call, not bound into the parser, which outlives the call
    report = (analyze if args.command == "analyze" else cross_validate)(_degree(args), args.genus)
    # defined: _degree checked the genus
    table = [f"spec: {report.degree_spec}", f"genus: {report.genus}", f"G: {report.G}",
             f"delta: {report.delta}"]
    table += [f"check {c['name']}: {'pass' if c['pass'] else 'FAIL'} "
              f"(expected={c['expected']} actual={c['actual']})" for c in report.checks]
    keys = ["name", "expected", "actual", "pass"]
    rows = [keys] + [[c[k] for k in keys] for c in report.checks]
    _emit(args.format, table, report.to_json_obj(), rows)
    return EXIT_OK if report.all_pass() else EXIT_CHECK_FAILED


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


@functools.cache  # built on the first main call, not at import
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
    p_analyze.set_defaults(func=cmd_report)

    p_inv = sub.add_parser(
        "invariance", help="ordering-independence and engine-agreement checks"
    )
    p_inv.add_argument("spec")
    _add_common(p_inv, fmt=True)
    p_inv.set_defaults(func=cmd_report)

    return parser


def _drop_unwritten_stdout() -> None:
    """If stdout cannot take what is still buffered, send it to the null
    device: the flush at exit would otherwise fail again, print a second
    error and turn the exit code into 120."""
    try:
        sys.stdout.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


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
        # the reader closed stdout (`| head` does)
        _drop_unwritten_stdout()
        return EXIT_BROKEN_PIPE
    except UnsupportedDegreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _drop_unwritten_stdout()
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
