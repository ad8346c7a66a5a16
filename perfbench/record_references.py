"""Rewrite perfbench/references.json from the package, keeping only agreed values.

    python3 perfbench/record_references.py

A count is recorded only when its independent checks hold (see
refcheck.py) and every engine that reaches it agrees: ``cross_validate``
(eight lambda orders plus the floor engine) where the path engine can run,
the floor engine alone on P2(6) and the P1xP1(4,5)/(5,4) pair, which the
path engine cannot reach.  The curve corpus is copied from
tests/data/curves together with its scores, so the benchmark's inputs do not
move when the test data does.  Takes about two minutes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import refcheck
import run

sys.path.insert(0, str(run.SRC))

from refinedcount import (  # noqa: E402
    CurveCombinatorics,
    compute_G_floor,
    cross_validate,
    curve_multiplicities,
    parse_degree,
    property_report,
)

CORPUS = run.ROOT / "tests" / "data" / "curves"
PATH_ENGINE_OUT_OF_REACH = {"P2:d=6", "P1xP1:d=4,r=5", "P1xP1:d=5,r=4"}


def all_counts() -> list[tuple[str, int]]:
    cases = set(run.battery()) | set(run.FLOOR_LADDER) | set(run.FLOOR_QUICK)
    cases |= {("P2:d=5", g) for g in (0, 1)}
    return sorted(cases)


def record_count(spec: str, g: int) -> dict:
    deg = parse_degree(spec)
    if spec in PATH_ENGINE_OUT_OF_REACH:
        G, basis = compute_G_floor(deg, g), "floor engine"
    else:
        report = cross_validate(deg, g)
        failed = [c["name"] for c in report.checks if not c["pass"]]
        if failed:
            raise SystemExit(f"{spec} g={g}: cross_validate failed {failed}")
        G, basis = report.G, "floor engine and 8 lambda orders of the path engine"
    poly = G.to_json_obj()
    problems = refcheck.check_count({"counts": {}}, spec, g, poly)
    problems.remove("no recorded reference polynomial")
    if problems:
        raise SystemExit(f"{spec} g={g}: {problems}")
    return {"poly": poly, "basis": basis}


def main() -> None:
    counts = {refcheck.count_key(spec, g): record_count(spec, g) for spec, g in all_counts()}
    for spec, g in all_counts():
        mirror = refcheck.p1xp1_mirror(spec)
        if mirror and (mirror, g) in all_counts():
            a, b = counts[refcheck.count_key(spec, g)], counts[refcheck.count_key(mirror, g)]
            if a["poly"] != b["poly"]:
                raise SystemExit(f"{spec} g={g} differs from {mirror}")
    curves = {}
    for path in sorted(CORPUS.glob("*.json")):
        obj = json.loads(path.read_text(encoding="utf-8"))
        curve = CurveCombinatorics.from_json_obj(obj)
        failed = [c.name for c in property_report(curve) if c.applicable and not c.passed]
        if failed:
            raise SystemExit(f"{path.name}: properties {failed} fail")
        curves[path.stem] = {"curve": obj, "stats": curve_multiplicities(curve).to_json_obj()}
    text = json.dumps({"counts": counts, "curves": curves}, indent=1, sort_keys=True)
    Path(refcheck.REFERENCES_FILE).write_text(text + "\n", encoding="utf-8")
    print(f"recorded {len(counts)} counts and {len(curves)} curves")


if __name__ == "__main__":
    main()
