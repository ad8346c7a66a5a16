"""Benchmark of the refinedcount engines and front ends.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload path-p2d5 --seed 1 --seconds 20 --trace 0

``--workload`` is ``path-p2d5``, ``floor-ladder``, ``verify-sweep`` or
``all``; ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones; ``--quick`` runs each workload on a tiny subset of its
cases.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every run also
writes its inputs, samples and failures (and, traced, its spans) under
``.perfbench_out/`` in the checkout.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import refcheck

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

RUN_LIMIT_S = 170.0     # every run must end within 180 s
SETUP_SAMPLES = 8       # set-up is sampled at least this often per run
# On path-p2d5 and floor-ladder, cache hits are timed in fresh set-up workers
# (as a CLI user meets them), since hit latency varies from process to process.
HIT_WORKERS = 6
HIT_SAMPLES = 900

WORKLOADS = ("path-p2d5", "floor-ladder", "verify-sweep")

# Lambda orders doing identical work (equal memo-miss counts), in pairs.
LAMBDA_PAIRS = (
    ("lex:+x,+y", "lex:+y,-x"),
    ("lex:+x,-y", "lex:+y,+x"),
    ("lex:-x,+y", "lex:-y,-x"),
    ("lex:-x,-y", "lex:-y,+x"),
)

FLOOR_LADDER = (
    [("P2:d=5", g) for g in (4, 5, 6)]
    + [("P2:d=6", g) for g in (0, 1)]
    + [("P1xP1:d=4,r=5", 0), ("P1xP1:d=5,r=4", 0)]
)
FLOOR_QUICK = [("P2:d=4", 2), ("P2:d=4", 3), ("P1xP1:d=2,r=3", 0), ("P1xP1:d=3,r=2", 0)]
# tracemalloc multiplies run time several-fold: the memory worker gets these
FLOOR_MEMORY = [("P2:d=6", 0)]
FLOOR_MEMORY_QUICK = [("P2:d=4", 2)]


def battery() -> list[tuple[str, int]]:
    """The 24 small acceptance-battery counts: P2 d<=4, P1xP1 d,r<=3, g<=2."""
    cases = [(f"P2:d={d}", g) for d in range(1, 5) for g in range((d - 1) * (d - 2) // 2 + 1)]
    for d in range(1, 4):
        for r in range(1, 4):
            cases += [(f"P1xP1:d={d},r={r}", g) for g in range(min(2, (d - 1) * (r - 1)) + 1)]
    return cases


VERIFY_QUICK = [("P2:d=3", 0), ("P2:d=3", 1), ("P1xP1:d=2,r=2", 0), ("P1xP1:d=2,r=3", 1)]

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "warm_solve_s": "s",
    "peak_rss_mb": "MB",
    "cache_hit_s": "s",
}

LAYERS = ("paths", "floors", "laurent", "geometry", "analysis", "curves", "cli")

PER_LAYER = {
    "paths.multiplicity_s": "s",
    "paths.pair_warm_s": "s",
    "paths.enumerate_s": "s",
    "paths.n_paths": "count",
    "paths.nonzero_paths": "count",
    "paths.nonzero_ratio": "ratio",
    "paths.engine_build_s": "s",
    "paths.peak_mb": "MB",
    "floors.enumerate_s": "s",
    "floors.n_diagrams": "count",
    "floors.markings_s": "s",
    "laurent.accumulate_s": "s",
    "floors.peak_mb": "MB",
    "analysis.cross_validate_s": "s",
    "analysis.structural_checks_s": "s",
    "cli.count_miss_s": "s",
    "cli.count_hit_s": "s",
    "cli.load_cache_s": "s",
    "cli.cache_entries": "count",
    "curves.score_s": "s",
    "geometry.polygon_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
}


class WorkerFailed(Exception):
    """A worker died, overran the time limit, or raised outside a count."""


def make_cases(workload: str, seed: int, quick: bool = False) -> tuple[list, list]:
    """(cases, memory-worker cases) generated from the seed alone."""
    rng = random.Random(seed)
    if workload == "path-p2d5":
        spec = "P2:d=4" if quick else "P2:d=5"
        orders = [rng.choice(pair) for pair in LAMBDA_PAIRS]
        cases = [(spec, g, lam) for g in (0, 1) for lam in orders]
        memory = [(spec, 0, orders[0])]
    elif workload == "floor-ladder":
        cases = list(FLOOR_QUICK if quick else FLOOR_LADDER)
        memory = list(FLOOR_MEMORY_QUICK if quick else FLOOR_MEMORY)
    elif workload == "verify-sweep":
        cases = list(VERIFY_QUICK if quick else battery())
        memory = None  # the whole pass
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(cases)
    return cases, memory or cases


def spawn(job: dict, deadline: float) -> dict:
    """Run one job in a fresh interpreter (worker.py) and return its result."""
    result_file = Path(job["cache_dir"]) / "result.json"
    text = json.dumps(job).encode()
    t_spawn = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(result_file), repr(t_spawn)],
        stdin=subprocess.PIPE, stdout=subprocess.DEVNULL,
    )
    try:
        proc.communicate(text, timeout=max(0.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed("worker ran past the run's time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not result_file.exists():
        raise WorkerFailed(f"worker exited with {proc.returncode} and no result")
    out = json.loads(result_file.read_text(encoding="utf-8"))
    result_file.unlink()
    if "error" in out:
        raise WorkerFailed(out["error"])
    return out


def tail(samples: list[float]):
    """(p, value) at the highest of p99/p95/p90/p75 with ten samples beyond it."""
    n = len(samples)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p, sorted(samples)[math.ceil(n * p / 100) - 1]
    return None


def describe(samples: list[float]) -> str:
    text = f"median of {len(samples)}"
    t = tail(samples)
    return text if t is None else f"{text}, p{t[0]} {t[1]:.6g}"


def layer_metrics(timed: dict, memory: dict, untraced_solve_s: float) -> dict[str, float]:
    """Per-layer busy and self time, work counts and peak traced memory."""
    spans = timed["spans"]
    pairwarm = [s for s in spans if s["run"].endswith(":pairwarm")]
    main = [s for s in spans if not s["run"].endswith(":pairwarm")]

    def busy(name: str, among=main) -> float:
        return sum(s["busy_s"] for s in among if s["name"] == name)

    def attr(name: str, key: str) -> int:
        return sum(s["attrs"].get(key, 0) for s in main if s["name"] == name)

    child_busy: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_busy[s["parent"]] += s["busy_s"]
    self_s = dict.fromkeys(LAYERS, 0.0)
    peak_mb = dict.fromkeys(LAYERS, 0.0)
    for s in main:
        layer = s["name"].split(".")[0]
        if layer in self_s:
            self_s[layer] += s["busy_s"] - child_busy[s["id"]]
    for s in memory["spans"]:
        layer = s["name"].split(".")[0]
        if layer in peak_mb:
            peak_mb[layer] = max(peak_mb[layer], s["peak_mb"])
    n_paths = attr("paths.enumerate", "paths")
    nonzero = attr("paths.multiplicity", "nonzero")
    entries = [s["attrs"]["entries"] for s in main if s["name"] == "cli.load_cache"]
    metrics = {
        "paths.multiplicity_s": busy("paths.multiplicity"),
        "paths.pair_warm_s": busy("paths.multiplicity", pairwarm),
        "paths.enumerate_s": busy("paths.enumerate"),
        "paths.n_paths": n_paths,
        "paths.nonzero_paths": nonzero,
        "paths.nonzero_ratio": nonzero / n_paths if n_paths else 0.0,
        "paths.engine_build_s": busy("paths.engine_build"),
        "paths.peak_mb": peak_mb["paths"],
        "floors.enumerate_s": busy("floors.enumerate"),
        "floors.n_diagrams": attr("floors.enumerate", "diagrams"),
        "floors.markings_s": busy("floors.markings"),
        "laurent.accumulate_s": busy("laurent.accumulate"),
        "floors.peak_mb": peak_mb["floors"],
        "analysis.cross_validate_s": busy("analysis.cross_validate"),
        "analysis.structural_checks_s": busy("analysis.structural_checks"),
        "cli.count_miss_s": busy("cli.count_miss"),
        "cli.count_hit_s": busy("cli.count_hit"),
        "cli.load_cache_s": busy("cli.load_cache"),
        "cli.cache_entries": max(entries, default=0),
        "curves.score_s": busy("curves.score"),
        "geometry.polygon_s": busy("geometry.polygon"),
    }
    metrics.update({f"{layer}.self_s": self_s[layer] for layer in LAYERS})
    metrics["trace.overhead_s"] = timed["solve_s"] - untraced_solve_s
    return metrics


def run_workload(workload: str, seed: int, seconds: int, trace: int,
                 quick: bool = False, refs: dict | None = None, out=sys.stdout) -> dict:
    """Measure one workload; print a report and return the result object."""
    started = perf_counter()
    deadline = started + RUN_LIMIT_S
    refs = refs if refs is not None else refcheck.load_references()
    cases, memory_cases = make_cases(workload, seed, quick)
    OUT.mkdir(exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=OUT)
    base = {
        "workload": workload, "seed": seed, "refs": refs, "cases": cases,
        "curves": sorted(refs["curves"]) if workload == "verify-sweep" else [],
        "cache_dir": cache_dir, "trace": "off", "mode": "pass", "warm": False,
        "hit_rounds": 0,
    }
    hit_rounds = 0 if workload == "verify-sweep" else math.ceil(HIT_SAMPLES / HIT_WORKERS / len(cases))
    workers: list[dict] = []
    samples: dict[str, list[float]] = defaultdict(list)
    try:
        if trace:
            plain = spawn(base, deadline)
            timed = spawn(dict(base, trace="time", hit_rounds=min(hit_rounds, 1)), deadline)
            mem = spawn(dict(base, trace="memory", cases=memory_cases), deadline)
            workers = [plain, timed, mem]
            for label, poly in plain["results"].items():
                if refcheck.poly_dict(timed["results"].get(label, [])) != refcheck.poly_dict(poly):
                    timed["problems"].setdefault(label, []).append("traced result differs from untraced")
            values = layer_metrics(timed, mem, plain["solve_s"])
            units = PER_LAYER
        else:
            setup_job = dict(base, mode="setup", hit_rounds=hit_rounds)
            # hit workers go half before and half after the passes, so that
            # cache_hit_s does not rest on one moment of the host's load
            setups = [spawn(setup_job, deadline) for _ in range(HIT_WORKERS // 2 if hit_rounds else 0)]
            passes: list[dict] = []
            # another pass only when the last one says it fits in the run
            while not passes or perf_counter() - started + passes[-1]["elapsed_s"] <= seconds:
                t0 = perf_counter()
                passes.append(dict(spawn(dict(base, warm=True), deadline), elapsed_s=perf_counter() - t0))
            n_more = SETUP_SAMPLES - len(setups) - len(passes)
            if hit_rounds:
                n_more = max(n_more, HIT_WORKERS - len(setups))
            setups += [spawn(setup_job, deadline) for _ in range(n_more)]
            workers = setups + passes
            for w in passes:
                for key in ("solve_s", "peak_rss_mb"):
                    samples[key].append(w[key])
                samples["warm_solve_s"].extend(w["warm_solve_s"])
            for w in workers:
                samples["setup_s"].append(w["setup_s"])
                samples["cache_hit_s"].extend(w["hit_s"])
            values = {name: statistics.median(samples[name]) for name in END_TO_END}
            units = END_TO_END
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    problems = {f"worker{i}:{label}": msgs
                for i, w in enumerate(workers) for label, msgs in w["problems"].items()}
    result = {
        "correct": not problems,
        "attempted": sum(w["attempted"] for w in workers),
        "failed": len(problems),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    tag = f"{workload}-seed{seed}-trace{trace}{'-quick' if quick else ''}"
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "quick": quick,
        "inputs": cases, "memory_inputs": memory_cases if trace else None,
        "workers": [{k: v for k, v in w.items() if k not in ("results", "spans", "problems")}
                    for w in workers],
        "problems": problems, "result": result,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if trace:
        with (OUT / f"{tag}-spans.jsonl").open("w", encoding="utf-8") as fh:
            for i, w in enumerate(workers):
                for s in w["spans"]:
                    fh.write(json.dumps(dict(s, worker=i)) + "\n")

    print(f"workload {workload} seed {seed} trace {trace}{' quick' if quick else ''}", file=out)
    print(f"inputs {json.dumps(cases)}", file=out)
    for name, unit in units.items():
        detail = f"  ({describe(samples[name])})" if name in samples else ""
        print(f"  {name:<30} {values[name]:<14.6g} {unit}{detail}", file=out)
    print(f"  fail_frac {result['failed']}/{result['attempted']}", file=out)
    for label, msgs in sorted(problems.items()):
        print(f"  FAILED {label}: {'; '.join(msgs)}", file=out)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny case subset of each workload")
    args = parser.parse_args(argv)
    if not (SRC / "refinedcount" / "__init__.py").is_file():
        print(f"error: no refinedcount package under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, max(1, args.seconds), args.trace, args.quick)
                   for w in names}
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
