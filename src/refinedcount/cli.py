"""Command-line front end for the counting engines and analysis checks.

Subcommands:

* ``count``      -- compute G(g, degree) with either engine (or both) and
                    cache the result in an append-only JSON-lines file.
* ``curve``      -- multiplicity report for a single curve description file.
* ``diagrams``   -- list the floor diagrams for a degree, one JSON per line.
* ``paths``      -- list the lattice paths for a degree, one JSON per line.
* ``analyze``    -- structural-law report for one computed polynomial.
* ``invariance`` -- ordering-independence and cross-engine agreement suite.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 unsupported
combination (e.g. the floor engine on a degree outside its two families).
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
    enumerate_paths,
    get_engine,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3

CACHE_ENV_VAR = "REFINED_COUNT_CACHE"
DEFAULT_CACHE = ".gcache.jsonl"
# Bump when an engine fix changes any count, so older entries stop being served.
CACHE_VERSION = 1


# -- result cache ---------------------------------------------------------------


def cache_path() -> Path:
    return Path(os.environ.get(CACHE_ENV_VAR, DEFAULT_CACHE))


def load_cache(path: Path) -> dict[tuple[str, int, str], dict]:
    """Map (canonical spec, genus, engine) -> newest entry; corrupt lines are skipped.

    The file is append-only, so the last well-formed entry for a key wins.
    A cache must never make the tool fail: anything unreadable is reported
    on stderr and ignored.  A well-formed entry written under another
    CACHE_VERSION, or none, is skipped silently and so gets recomputed.
    """
    entries: dict[tuple[str, int, str], dict] = {}
    if not path.exists():
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
    entry = {
        "version": CACHE_VERSION,
        "spec": spec,
        "genus": genus,
        "engine": engine,
        "poly": G.to_json_obj(),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry) + "\n")


# -- shared helpers -------------------------------------------------------------


def _csv_writer():
    return csv.writer(sys.stdout, lineterminator="\n")


def _print_report(report: InvariantReport, fmt: str) -> int:
    if fmt == "json":
        print(json.dumps(report.to_json_obj()))
    elif fmt == "csv":
        writer = _csv_writer()
        writer.writerow(["name", "expected", "actual", "pass"])
        for c in report.checks:
            writer.writerow([c["name"], c["expected"], c["actual"], c["pass"]])
    else:
        print(f"spec: {report.degree_spec}")
        print(f"genus: {report.genus}")
        print(f"G: {report.G}")
        print(f"delta: {'-' if report.delta is None else report.delta}")
        for c in report.checks:
            verdict = "pass" if c["pass"] else "FAIL"
            print(
                f"check {c['name']}: {verdict} "
                f"(expected={c['expected']} actual={c['actual']})"
            )
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

    path = cache_path()
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

    if args.format == "json":
        obj: dict = {
            "spec": spec,
            "genus": args.genus,
            "engine": args.engine,
            "polynomial": str(G),
            "poly": G.to_json_obj(),
            "delta": str(delta),
            "eval_at_1": eval_1,
            "eval_at_minus_1": eval_m1,
        }
        if agreement is not None:
            obj["agreement"] = agreement
        print(json.dumps(obj))
    elif args.format == "csv":
        writer = _csv_writer()
        writer.writerow(
            ["spec", "genus", "engine", "polynomial", "delta", "eval_at_1", "eval_at_minus_1"]
        )
        writer.writerow(
            [
                spec,
                args.genus,
                args.engine,
                str(G),
                delta,
                eval_1,
                "" if eval_m1 is None else eval_m1,
            ]
        )
    else:
        print(f"spec: {spec}")
        print(f"genus: {args.genus}")
        print(f"engine: {args.engine}")
        print(f"G: {G}")
        print(f"delta: {delta}")
        print(f"eval(1): {eval_1}")
        if eval_m1 is not None:
            print(f"eval(-1): {eval_m1}")
        if agreement is not None:
            print(f"agreement: {'ok' if agreement else 'MISMATCH'}")

    if agreement is False or verify_failed:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_curve(args: argparse.Namespace) -> int:
    text = Path(args.file).read_text(encoding="utf-8")
    curve = CurveCombinatorics.from_json(text)
    stats = curve_multiplicities(curve)
    checks = property_report(curve)
    stats_obj = stats.to_json_obj()

    if args.format == "json":
        obj = {"stats": stats_obj, "checks": [c.to_json_obj() for c in checks]}
        print(json.dumps(obj))
    elif args.format == "csv":
        writer = _csv_writer()
        keys = ["mu_C", "mu_R", "G", "alpha", "genus", "degree"]
        writer.writerow(keys)
        writer.writerow([stats_obj[k] for k in keys])
    else:
        for k in ("mu_C", "mu_R", "G", "alpha", "genus", "degree"):
            print(f"{k}: {stats_obj[k]}")
        for c in checks:
            verdict = ("pass" if c.passed else "FAIL") if c.applicable else "n/a"
            suffix = f" ({c.detail})" if c.detail else ""
            print(f"check {c.name}: {verdict}{suffix}")

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
    _require_primitive(deg)  # enumerate_paths takes the polygon, not the degree
    lam = LambdaOrder.parse(args.lam)
    poly = dual_polygon(deg)
    engine = get_engine(poly, lam)
    for path in enumerate_paths(poly, args.genus, lam):
        obj = {
            "points": [list(pt) for pt in path.points],
            "mu_plus": str(engine.mu(path, PLUS)),
            "mu_minus": str(engine.mu(path, MINUS)),
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
            help="point ordering, e.g. lex:+x,+y or lex:-y,+x",
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
        return args.func(args)
    except UnsupportedDegreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
