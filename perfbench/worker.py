"""One benchmark worker: a fresh process that sets up, runs passes and reports.

    python3 perfbench/worker.py <result-file> <spawn-time>   (job JSON on stdin)

The parent starts a new interpreter for every measured pass, so the
package's memo tables (the ``get_engine`` cache, ``_pair_b1``) start cold,
as they do for a command-line user; nothing here ever clears them.  The
worker imports ``refinedcount`` only inside the timed set-up, and calls the
package only through its public functions.  ``spawn-time`` is the parent's
``perf_counter()`` just before the start; on Linux it reads CLOCK_MONOTONIC,
one clock for every process, so set-up time includes the interpreter start.

Tracing modes:

* ``off``    -- the public entry points (``compute_G_path``,
  ``compute_G_floor``, ``cli.main``, ...) with no spans.
* ``time``   -- spans around every public call, kept in memory and returned
  at the end.  Engine counts run the same loops ``compute_G_path`` and
  ``compute_G_floor`` run, so the time splits into enumeration,
  multiplicity and accumulation.
* ``memory`` -- as ``time``, with ``tracemalloc`` on and each span's peak
  traced memory recorded.  It costs several times the untraced run, so the
  parent hands this mode a subset of the cases.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import traceback
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import refcheck

# Warm passes are repeated, while cheap, so that one slow pass does not set
# warm_solve_s; the cold pass cannot be, as it needs a fresh worker.
WARM_PASSES = 5
WARM_BUDGET_S = 4.0


class Span:
    """A timed region; entered once, or many times as a batch.

    A batch stands for a run of short calls of one kind (one span per
    ``path_multiplicity`` call would be ~150k spans): ``start`` is its first
    entry, ``end`` its last exit, ``busy`` the time summed over its ``calls``
    entries.  Self time is ``busy`` minus the busy time of child spans.
    """

    __slots__ = ("tracer", "name", "run", "id", "parent", "start", "end", "busy",
                 "calls", "attrs", "peak", "_t0")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.id = None
        self.busy = 0.0
        self.calls = 0
        self.peak = 0

    def __enter__(self) -> "Span":
        tr = self.tracer
        if tr.mode == "off":
            return self
        if tr.mode == "memory":
            tr.mark_peak()
        if self.id is None:
            self.run = tr.run
            self.parent = tr.stack[-1].id if tr.stack else None
            self.id = len(tr.spans)
            tr.spans.append(self)
        tr.stack.append(self)
        self._t0 = perf_counter()
        if self.calls == 0:
            self.start = self._t0
        return self

    def __exit__(self, *exc) -> bool:
        tr = self.tracer
        if tr.mode == "off":
            return False
        self.end = perf_counter()
        self.busy += self.end - self._t0
        self.calls += 1
        if tr.mode == "memory":
            tr.mark_peak()
        tr.stack.pop()
        if tr.stack:
            tr.stack[-1].peak = max(tr.stack[-1].peak, self.peak)
        return False

    def to_json_obj(self) -> dict:
        return {
            "name": self.name, "run": self.run, "id": self.id, "parent": self.parent,
            "start": self.start, "end": self.end, "busy_s": self.busy, "calls": self.calls,
            "attrs": self.attrs, "peak_mb": self.peak / 2 ** 20,
        }


class Tracer:
    """In-memory spans for one worker; ``run`` is the current run id."""

    def __init__(self, mode: str):
        self.mode = mode
        self.run = ""
        self.spans: list[Span] = []
        self.stack: list[Span] = []

    def span(self, name: str, **attrs) -> Span:
        return Span(self, name, attrs)

    def mark_peak(self) -> None:
        """Charge the peak since the last mark to the innermost open span."""
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        if self.stack:
            self.stack[-1].peak = max(self.stack[-1].peak, peak)


def main(result_file: str, t_spawn: float) -> None:
    """Run the job read from stdin; write one result object to ``result_file``."""
    job = dict(json.load(sys.stdin), t_spawn=t_spawn)
    try:
        out = Worker(job).run()
    except Exception:
        out = {"error": traceback.format_exc()}
    Path(result_file).write_text(json.dumps(out), encoding="utf-8")


class Worker:
    def __init__(self, job: dict):
        self.job = job
        self.workload = job["workload"]
        self.refs = job["refs"]
        self.tr = Tracer(job["trace"])
        self.traced = job["trace"] != "off"
        self.attempted = 0
        self.results: dict[str, list] = {}
        self.problems: dict[str, list[str]] = {}
        self.hit_s: list[float] = []
        self.pass_name = "setup"
        self.swept: list = []  # (label, spec, g, engine) of each traced path count

    def phase(self, name: str) -> None:
        self.pass_name = name
        self.tr.run = f"{self.workload}:{self.job['seed']}:{self.job['trace']}:{name}"

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> None:
        """Import the package and build every input; timed as set-up."""
        self.phase("setup")
        import refinedcount as rc
        from refinedcount import cli
        from refinedcount.paths import get_engine

        self.rc, self.cli, self.get_engine = rc, cli, get_engine
        self.cases = [tuple(c) for c in self.job["cases"]]
        self.degrees = {}
        for case in self.cases:
            spec, g = case[0], case[1]
            with self.tr.span("geometry.polygon"):
                if spec not in self.degrees:
                    self.degrees[spec] = rc.parse_degree(spec)
                top = rc.genus_max(self.degrees[spec])
            if not 0 <= g <= top:
                raise ValueError(f"{spec} has genera 0..{top}; the workload asks for {g}")
        self.orders = {c[2]: rc.LambdaOrder.parse(c[2]) for c in self.cases if len(c) > 2}
        self.curves = {}
        for name in self.job["curves"]:
            with self.tr.span("curves.parse"):
                self.curves[name] = rc.CurveCombinatorics.from_json_obj(
                    self.refs["curves"][name]["curve"]
                )
        self.cache_file = Path(self.job["cache_dir"]) / f"gcache-{os.getpid()}.jsonl"
        os.environ["REFINED_COUNT_CACHE"] = str(self.cache_file)

    # -- recording -------------------------------------------------------------

    def fail(self, label: str, problems: list[str]) -> None:
        self.problems.setdefault(label, []).extend(problems)

    def count(self, label: str, spec: str, g: int, compute) -> None:
        """Run one count; record its polynomial and every reference it misses.

        ``compute`` returns (polynomial JSON, problems found on the way).
        """
        label = f"{self.pass_name}:{label}"
        self.attempted += 1
        try:
            poly_obj, problems = compute()
        except Exception as exc:
            self.fail(label, [f"raised {exc!r}"])
            return
        self.results[label] = poly_obj
        problems = problems + refcheck.check_count(self.refs, spec, g, poly_obj)
        if problems:
            self.fail(label, problems)

    def require_equal(self, labels: list[str], why: str) -> None:
        labels = [f"{self.pass_name}:{lab}" for lab in labels]
        polys = [refcheck.poly_dict(self.results[lab]) for lab in labels if lab in self.results]
        if any(p != polys[0] for p in polys):
            for lab in labels:
                self.fail(lab, [f"disagrees with {why}"])

    # -- engine counts ---------------------------------------------------------

    def path_count(self, spec: str, g: int, lam: str):
        deg, order = self.degrees[spec], self.orders[lam]
        if not self.traced:
            return self.rc.compute_G_path(deg, g, order).to_json_obj(), []
        # the loop of compute_G_path, split at its calls into the engine
        tr = self.tr
        with tr.span("geometry.polygon"):
            poly = self.rc.dual_polygon(deg)
        with tr.span("paths.engine_build"):
            engine = self.get_engine(poly, order)
        with tr.span("paths.enumerate") as sp:
            ids_list = list(engine.path_id_tuples(g, deg.kappa))
            sp.attrs["paths"] = len(ids_list)
        self.swept.append((f"{spec} g={g} {lam}", spec, g, engine))
        return self.sweep(engine, ids_list, g, tr.span("paths.multiplicity")), []

    def sweep(self, engine, ids_list, g, calls: Span) -> list:
        """Sum path_multiplicity over the paths, each call timed in ``calls``."""
        total: dict[int, int] = {}
        nonzero = 0
        for ids in ids_list:
            with calls:
                joint = engine.path_multiplicity(ids, g)
            if joint:
                nonzero += 1
                for e, v in joint.items():
                    total[e] = total.get(e, 0) + v
        calls.attrs["nonzero"] = nonzero
        return self.rc.RefinedPoly.from_half_units(total).to_json_obj()

    def floor_count(self, spec: str, g: int):
        deg = self.degrees[spec]
        if not self.traced:
            return self.rc.compute_G_floor(deg, g).to_json_obj(), []
        # the loop of compute_G_floor, split at its calls into the engine
        tr, rc = self.tr, self.rc
        with tr.span("floors.enumerate") as sp:
            diagrams = rc.enumerate_diagrams(deg, g)
            sp.attrs["diagrams"] = len(diagrams)
        markings, accumulate = tr.span("floors.markings"), tr.span("laurent.accumulate")
        total = rc.RefinedPoly.zero()
        for D in diagrams:
            with markings:
                nu = rc.markings_count(D)
            with accumulate:
                total = total + nu * rc.refined_multiplicity(D)
        return total.to_json_obj(), []

    # -- front end -------------------------------------------------------------

    def cli_count(self, args: list[str]) -> dict:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = self.cli.main(["count", *args, "--format", "json"])
        if code != 0:
            raise RuntimeError(f"refined-count exited with {code}")
        return json.loads(buf.getvalue())

    def cache_hit(self, spec: str, g: int, args: list[str]):
        with self.tr.span("cli.count_hit"):
            t0 = perf_counter()
            obj = self.cli_count([spec, "--genus", str(g), *args])
            self.hit_s.append(perf_counter() - t0)
        if self.traced:
            with self.tr.span("cli.load_cache") as sp:
                sp.attrs["entries"] = len(self.cli.load_cache(self.cache_file))
        return obj["poly"], []

    # -- workloads -------------------------------------------------------------

    def path_pass(self) -> None:
        for spec, g, lam in self.cases:
            self.count(f"{spec} g={g} {lam}", spec, g, lambda: self.path_count(spec, g, lam))
        for spec, g in sorted({c[:2] for c in self.cases}):
            self.require_equal(
                [f"{s} g={h} {lam}" for s, h, lam in self.cases if (s, h) == (spec, g)],
                "another lambda order",
            )

    def floor_pass(self) -> None:
        for spec, g in self.cases:
            self.count(f"{spec} g={g}", spec, g, lambda: self.floor_count(spec, g))
        for spec, g in self.cases:
            mirror = refcheck.p1xp1_mirror(spec)
            if mirror and (mirror, g) in self.cases:
                self.require_equal([f"{spec} g={g}", f"{mirror} g={g}"], "its mirror degree")

    def verify_pass(self) -> None:
        rc, tr = self.rc, self.tr
        for spec, g in self.cases:
            deg = self.degrees[spec]
            label = f"{spec} g={g}"
            if self.traced:
                # build the eight engines cross_validate will use, so the
                # build cost shows as its own span; the work is the same
                with tr.span("paths.engine_build"):
                    with tr.span("geometry.polygon"):
                        poly = rc.dual_polygon(deg)
                    for order in rc.all_orders():
                        self.get_engine(poly, order)

            def both():
                with tr.span("cli.count_miss"):
                    obj = self.cli_count([spec, "--genus", str(g), "--engine", "both"])
                return obj["poly"], [] if obj.get("agreement") is True else ["engines disagree"]

            self.count(f"{label} count-both", spec, g, both)
            self.count(f"{label} count-cached", spec, g, lambda: self.cache_hit(spec, g, []))

            report = None

            def cross():
                nonlocal report
                with tr.span("analysis.cross_validate"):
                    report = rc.cross_validate(deg, g)
                return report.G.to_json_obj(), [c["name"] for c in report.checks if not c["pass"]]

            def laws():
                with tr.span("analysis.structural_checks"):
                    checked = rc.structural_checks(deg, g, report.G)
                return checked.G.to_json_obj(), [c["name"] for c in checked.checks if not c["pass"]]

            self.count(f"{label} cross-validate", spec, g, cross)
            self.count(f"{label} structural-checks", spec, g, laws)

        for name, curve in self.curves.items():
            label = f"{self.pass_name}:curve {name}"
            self.attempted += 1
            try:
                with tr.span("curves.score"):
                    stats = rc.curve_multiplicities(curve).to_json_obj()
                    checks = rc.property_report(curve)
                failed = [c.name for c in checks if c.applicable and not c.passed]
            except Exception as exc:
                self.fail(label, [f"raised {exc!r}"])
                continue
            problems = refcheck.check_curve(self.refs, name, stats, failed)
            if problems:
                self.fail(label, problems)

    def run_pass(self, name: str) -> float:
        self.phase(name)
        t0 = perf_counter()
        {"path-p2d5": self.path_pass, "floor-ladder": self.floor_pass,
         "verify-sweep": self.verify_pass}[self.workload]()
        return perf_counter() - t0

    def cache_hits(self) -> None:
        """Time count calls served from a cache holding every case's reference."""
        self.phase("hits")
        is_path = self.workload == "path-p2d5"
        for spec, g in sorted({c[:2] for c in self.cases}):
            ref = self.refs["counts"][refcheck.count_key(spec, g)]["poly"]
            G = self.rc.RefinedPoly.from_json_obj(ref)
            self.cli.append_cache(self.cache_file, spec, g, "path" if is_path else "floor", G)
        for _ in range(self.job["hit_rounds"]):
            for case in self.cases:
                spec, g = case[0], case[1]
                args = ["--lambda", case[2]] if is_path else ["--engine", "floor"]
                self.count(f"{spec} g={g} {' '.join(args)}", spec, g,
                           lambda: self.cache_hit(spec, g, args))

    def warm_path_sweep(self) -> None:
        """Second multiplicity sweep over the cold pass's paths, memos warm."""
        self.phase("pairwarm")
        for label, spec, g, engine in self.swept:
            ids_list = list(engine.path_id_tuples(g, self.degrees[spec].kappa))
            calls = self.tr.span("paths.multiplicity")
            self.count(label, spec, g, lambda: (self.sweep(engine, ids_list, g, calls), []))

    def run(self) -> dict:
        job = self.job
        if job["trace"] == "memory":
            tracemalloc.start()
        self.setup()
        out: dict = {"setup_s": perf_counter() - job["t_spawn"]}
        if job["mode"] == "pass":
            out["solve_s"] = self.run_pass("cold")
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if job["warm"]:
                warm = out["warm_solve_s"] = [self.run_pass("warm")]
                while len(warm) < WARM_PASSES and sum(warm) < WARM_BUDGET_S:
                    warm.append(self.run_pass(f"warm{len(warm)}"))
            if job["trace"] == "time" and self.workload == "path-p2d5":
                self.warm_path_sweep()
        if job["hit_rounds"]:
            self.cache_hits()
        out.update(
            attempted=self.attempted,
            results=self.results,
            problems=self.problems,
            hit_s=self.hit_s,
            spans=[s.to_json_obj() for s in self.tr.spans],
        )
        return out


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    main(sys.argv[1], float(sys.argv[2]))
