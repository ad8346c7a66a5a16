"""Command-line interface: output formats, exit codes, result cache."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import refinedcount
from refinedcount import cli
from refinedcount.cli import main
from refinedcount.laurent import RefinedPoly

DATA_DIR = Path(__file__).parent / "data" / "curves"


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    cache = tmp_path / "cache.jsonl"
    monkeypatch.setenv("REFINED_COUNT_CACHE", str(cache))
    return cache


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_cubic_table(capsys):
    code, out, err = run(capsys, "count", "P2:d=3")
    assert code == 0
    assert "spec: P2:d=3" in out
    assert "genus: 0" in out
    assert "G: y+10+y^-1" in out
    assert "delta: 1" in out
    assert "eval(1): 12" in out
    assert "eval(-1): 8" in out


def test_count_examples(capsys):
    code, out, _ = run(capsys, "count", "P2:d=4", "--genus", "2")
    assert code == 0 and "G: 3*y+21+3*y^-1" in out

    code, out, _ = run(capsys, "count", "P2:d=1")
    assert code == 0 and "G: 1" in out

    code, out, _ = run(capsys, "count", "P1xP1:d=2,r=2", "--engine", "floor")
    assert code == 0 and "G: y+10+y^-1" in out


def test_count_json_format(capsys):
    code, out, _ = run(capsys, "count", "P2:d=3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["spec"] == "P2:d=3"
    assert obj["polynomial"] == "y+10+y^-1"
    assert obj["delta"] == "1"
    assert obj["eval_at_1"] == 12
    assert obj["eval_at_minus_1"] == 8
    assert obj["poly"] == [[2, "1"], [0, "10"], [-2, "1"]]


def test_count_csv_format(capsys):
    code, out, _ = run(capsys, "count", "P2:d=3", "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "spec,genus,engine,polynomial,delta,eval_at_1,eval_at_minus_1"
    assert row == "P2:d=3,0,path,y+10+y^-1,1,12,8"


def test_count_both_engines_agree(capsys):
    code, out, _ = run(capsys, "count", "P2:d=3", "--engine", "both")
    assert code == 0
    assert "agreement: ok" in out
    code, out, _ = run(capsys, "count", "P2:d=3", "--engine", "both", "--format", "json")
    assert code == 0
    assert out.endswith('"agreement": true}\n')


def test_count_half_integer_delta_omits_minus_1(capsys):
    code, out, _ = run(
        capsys, "count", "vectors:(2,0);(0,2);(-2,-2)", "--engine", "floor"
    )
    assert code == 3  # not a floor family either

    code, out, _ = run(capsys, "count", "polygon:(0,0),(2,1),(0,2)")
    assert code == 0
    assert "eval(-1):" in out  # this degree still has integer powers


def test_count_exit_codes(capsys, isolated_cache, monkeypatch):
    code, _, err = run(capsys, "count", "P3:d=2")
    assert code == 2
    assert "error: unrecognised degree spec" in err

    every_genus_use = (
        ("count", "P2:d=3", "--engine", "floor"),
        ("count", "P2:d=3", "--engine", "path"),
        ("count", "P2:d=3", "--engine", "both"),
        ("diagrams", "P2:d=3"),
        ("paths", "P2:d=3"),
        ("analyze", "P2:d=3"),
        ("invariance", "P2:d=3"),
    )
    # a negative genus is a usage error under every subcommand, and caches nothing
    for argv in every_genus_use:
        code, out, err = run(capsys, *argv, "--genus", "-1")
        assert code == 2
        assert out == ""
        assert err.startswith(f"usage: refined-count {argv[0]} ")
        assert err.endswith(
            f"refined-count {argv[0]}: error: argument --genus: genus must be >= 0, got -1\n"
        )
    code, out, err = run(capsys, "count", "P2:d=3", "--genus", "x")
    assert (code, out) == (2, "")
    assert err.endswith("argument --genus: invalid int value: 'x'\n")
    # so is a genus above genus_max, whichever engine would run: none runs
    def no_engine(*args, **kwargs):
        raise AssertionError("an engine ran")

    with monkeypatch.context() as m:
        for name in ("compute_G_floor", "compute_G_path", "enumerate_diagrams",
                     "get_engine", "analyze", "cross_validate"):
            m.setattr(cli, name, no_engine)
        for argv in every_genus_use:
            code, out, err = run(capsys, *argv, "--genus", "2")
            assert (code, out, err) == (2, "", "error: genus 2 exceeds genus_max 1 of P2:d=3\n")
    assert not isolated_cache.exists()

    nonprimitive = "vectors:(2,0);(0,2);(-2,-2)"
    for argv in (
        ("count", nonprimitive),
        ("count", nonprimitive, "--engine", "both"),
        ("paths", nonprimitive),
        ("analyze", nonprimitive),
        ("invariance", nonprimitive),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err == "error: lattice-path engine requires primitive degree\n"

    code, _, err = run(capsys, "count", "polygon:(0,0),(2,1),(0,2)",
                       "--engine", "floor")
    assert code == 3

    # profile labels must fit a byte: refused before any count, nothing cached
    code, out, err = run(capsys, "count", "P2:d=22", "--engine", "path")
    assert (code, out) == (cli.EXIT_UNSUPPORTED, "")
    assert err == "error: lattice-path engine supports at most 256 lattice points in the polygon, got 276\n"
    assert not isolated_cache.exists()

    assert main(["count", "P2:d=3", "--jobs", "2"]) == 2  # no such option
    assert main([]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_count_writes_and_reuses_cache(capsys, isolated_cache, monkeypatch):
    code, first, _ = run(capsys, "count", "P2:d=3")
    assert code == 0
    assert isolated_cache.exists()
    lines = isolated_cache.read_text().splitlines()
    assert len(lines) == 1
    entry = json.loads(lines[0])
    assert (entry["spec"], entry["genus"], entry["engine"]) == ("P2:d=3", 0, "path")

    code, second, _ = run(capsys, "count", "P2:d=3")
    assert code == 0
    assert second == first  # byte-identical on a cache hit
    assert len(isolated_cache.read_text().splitlines()) == 1  # no new entry

    # the path engine's entry is not served under the floor engine's name
    code, out, _ = run(capsys, "count", "P2:d=3", "--engine", "floor")
    assert code == 0
    assert "engine: floor" in out
    lines = isolated_cache.read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[1])["engine"] == "floor"

    # an entry both engines agreed on serves either engine
    code, _, _ = run(capsys, "count", "P2:d=3", "--genus", "1", "--engine", "both")
    assert code == 0
    assert len(isolated_cache.read_text().splitlines()) == 3
    code, out, _ = run(capsys, "count", "P2:d=3", "--genus", "1")
    assert code == 0
    assert "engine: path" in out
    assert len(isolated_cache.read_text().splitlines()) == 3

    # engines that disagree leave nothing in the cache
    monkeypatch.setattr(cli, "compute_G_floor", lambda deg, g: RefinedPoly.zero())
    code, out, _ = run(capsys, "count", "P2:d=4", "--engine", "both")
    assert code == 1
    assert "agreement: MISMATCH" in out
    assert len(isolated_cache.read_text().splitlines()) == 3

    # an entry with no version predates the current engines: recompute it
    stale = {"spec": "P2:d=4", "genus": 2, "engine": "path", "poly": [[0, "99"]]}
    with isolated_cache.open("a") as fh:
        fh.write(json.dumps(stale) + "\n")
    code, out, err = run(capsys, "count", "P2:d=4", "--genus", "2")
    assert code == 0
    assert "G: 3*y+21+3*y^-1" in out
    assert err == ""
    lines = isolated_cache.read_text().splitlines()
    assert len(lines) == 5
    assert json.loads(lines[4])["version"] == cli.CACHE_VERSION


def test_count_verify_cache(capsys, isolated_cache):
    run(capsys, "count", "P2:d=3")
    code, _, err = run(capsys, "count", "P2:d=3", "--verify-cache")
    assert code == 0
    assert "cache: verified" in err

    # Tamper with the stored polynomial: verification must fail loudly.
    entry = json.loads(isolated_cache.read_text())
    entry["poly"] = [[2, "1"], [0, "99"], [-2, "1"]]
    isolated_cache.write_text(json.dumps(entry) + "\n")
    code, _, err = run(capsys, "count", "P2:d=3", "--verify-cache")
    assert code == 1
    assert "cache: MISMATCH" in err


def test_count_serves_a_cached_count_for_every_lambda_order(capsys, isolated_cache,
                                                            monkeypatch):
    # G does not depend on the order, so the cache key holds none: a second
    # order is served from the first order's entry, and --verify-cache
    # recomputes in the order given
    code, first, _ = run(capsys, "count", "P2:d=3", "--lambda", "lex:+x,+y")
    assert code == 0

    def no_engine(*args, **kwargs):
        raise AssertionError("an engine ran")

    with monkeypatch.context() as m:
        for name in ("compute_G_floor", "compute_G_path", "get_engine"):
            m.setattr(cli, name, no_engine)
        assert run(capsys, "count", "P2:d=3", "--lambda", "lex:-y,+x") == (0, first, "")
    assert len(isolated_cache.read_text().splitlines()) == 1

    orders = []
    compute = cli.compute_G_path

    def recording(deg, g, lam):
        orders.append(lam.spec())
        return compute(deg, g, lam)

    monkeypatch.setattr(cli, "compute_G_path", recording)
    code, out, err = run(capsys, "count", "P2:d=3", "--verify-cache", "--lambda", "lex:-y,+x")
    assert (code, out) == (0, first)
    assert orders == ["lex:-y,+x"]
    assert err.startswith("cache: verified")
    assert len(isolated_cache.read_text().splitlines()) == 1


def test_count_skips_corrupt_cache_lines(capsys, isolated_cache):
    def entry(**fields):
        good = {"version": cli.CACHE_VERSION, "spec": "P2:d=3", "genus": 0, "engine": "path",
                "poly": [[0, "99"]]}
        return json.dumps({**good, **fields})

    lines = [
        '{"bad json',
        "not even json",
        # corrupt, not stale: the type checks come before the version filter
        json.dumps({"spec": "P2:d=3", "genus": 0, "engine": ["path"], "poly": [[0, "1"]]}),
        entry(engine=["path"]),
        # a bool or float must not pass for an int and serve another key
        entry(genus=True),
        entry(version=True, genus=0.9),
        entry(poly=[[1.9, "1"], [0, 10.7], [-1, True]]),
        # only the decimal strings append_cache writes
        entry(poly=[[0, "01"]]),
        entry(poly=[[0, "+1"]]),
        entry(poly=[[0, "0"]]),
        entry(poly=[[0, 1]]),
        # a whitespace-only line is skipped without a warning
        " \t ",
    ]
    isolated_cache.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "count", "P2:d=3")
    assert code == 0
    assert "G: y+10+y^-1" in out
    assert err.count("skipping corrupt cache line") == 11
    assert err.count("malformed polynomial term") == 4
    code, out, err = run(capsys, "count", "P2:d=3", "--genus", "1")
    assert code == 0
    assert "G: 1\n" in out
    assert err.count("skipping corrupt cache line") == 11
    # the fresh results are appended after the corrupt and blank lines
    assert len(isolated_cache.read_text().splitlines()) == 14


def test_count_skips_a_cache_line_that_is_not_utf8(capsys, isolated_cache):
    good = {"version": cli.CACHE_VERSION, "spec": "P2:d=3", "genus": 0, "engine": "path",
            "poly": [[0, "99"]]}
    # line 3 is well-formed JSON but for the byte inside its timestamp
    bad_inside = json.dumps({**good, "genus": 1, "timestamp": ""}).encode().replace(b'""', b'"\xff"')
    isolated_cache.write_bytes(json.dumps(good).encode() + b"\n\xff\n" + bad_inside + b"\n")
    code, out, err = run(capsys, "count", "P2:d=3")
    assert code == 0
    assert "G: 99\n" in out  # the good entry is served
    assert err.count("skipping corrupt cache line") == 2
    assert f"{isolated_cache}:2: skipping corrupt cache line" in err
    assert f"{isolated_cache}:3: skipping corrupt cache line" in err
    code, out, _ = run(capsys, "count", "P2:d=3", "--genus", "1")
    assert code == 0
    assert "G: 1\n" in out  # computed, not served from line 3


def test_count_both_never_trusts_cache(capsys, isolated_cache):
    wrong = {
        "spec": "P2:d=3",
        "genus": 0,
        "engine": "path",
        "poly": [[2, "1"], [0, "99"], [-2, "1"]],
        "timestamp": "2000-01-01T00:00:00+00:00",
    }
    isolated_cache.write_text(json.dumps(wrong) + "\n")
    code, out, _ = run(capsys, "count", "P2:d=3", "--engine", "both")
    assert code == 0
    assert "G: y+10+y^-1" in out
    assert "agreement: ok" in out


def test_count_in_a_missing_cache_directory_still_prints_the_count(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "no_such_dir" / "c.jsonl"
    monkeypatch.setenv("REFINED_COUNT_CACHE", str(cache))
    code, out, err = run(capsys, "count", "P2:d=4", "--genus", "1")
    assert code == 0
    assert "G: 3*y^2+33*y+153+33*y^-1+3*y^-2\n" in out
    assert err == f"warning: cache not written: [Errno 2] No such file or directory: '{cache}'\n"
    assert not cache.parent.exists()


def test_count_with_a_directory_as_cache_still_prints_the_count(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REFINED_COUNT_CACHE", str(tmp_path))
    code, out, err = run(capsys, "count", "P2:d=3", "--format", "json")
    assert code == 0
    assert json.loads(out)["polynomial"] == "y+10+y^-1"
    assert err == f"warning: cache not written: [Errno 21] Is a directory: '{tmp_path}'\n"
    assert cli.load_cache(tmp_path) == {}


def test_curve_report(capsys):
    path = DATA_DIR / "delta3_weight2_edge.json"
    code, out, _ = run(capsys, "curve", str(path))
    assert code == 0
    assert "mu_C: 4" in out
    assert "mu_R: 0" in out
    assert "G: y+2+y^-1" in out
    assert "genus: 0" in out
    assert "check symmetric: pass" in out
    assert "check eval_at_-1_is_mu_real: pass" in out

    code, out, _ = run(capsys, "curve", str(DATA_DIR / "one_vertex_mult2.json"))
    assert code == 0
    assert "check eval_at_-1_is_mu_real: n/a" in out

    code, out, _ = run(capsys, "curve", str(path), "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["stats"]["mu_C"] == 4
    assert {c["name"] for c in obj["checks"]} >= {"symmetric", "positive_coefficients"}

    code, out, _ = run(capsys, "curve", str(path), "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "mu_C,mu_R,G,alpha,genus,degree"

    code, _, err = run(capsys, "curve", str(DATA_DIR / "missing.json"))
    assert code == 2
    assert "error:" in err


def test_curve_with_a_degenerate_vertex_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps({"vertices": [{"id": 0}], "edges": [
        {"from": 0, "to": "inf", "dir": [1, 0], "weight": 1},
        {"from": 0, "to": "inf", "dir": [1, 0], "weight": 1},
        {"from": 0, "to": "inf", "dir": [-1, 0], "weight": 2},
    ]}))
    code, out, err = run(capsys, "curve", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: balancing: vertex 0 is degenerate")


def test_curve_whose_ends_do_not_form_a_degree_is_a_usage_error(capsys, tmp_path):
    theta = [{"from": 0, "to": 1, "dir": d, "weight": 1} for d in ([1, 0], [0, 1], [-1, -1])]
    bubble = [{"from": 0, "to": "inf", "dir": [-1, 0], "weight": 2},
              {"from": 0, "to": 1, "dir": [1, 1], "weight": 1},
              {"from": 0, "to": 1, "dir": [1, -1], "weight": 1},
              {"from": 1, "to": "inf", "dir": [1, 0], "weight": 2}]
    for name, edges in (("bubble", bubble), ("theta", theta)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"vertices": [{"id": 0}, {"id": 1}], "edges": edges}))
        code, out, err = run(capsys, "curve", str(path))
        assert (code, out) == (2, ""), name
        assert err.startswith("error: balancing: the unbounded ends do not form a degree"), name


def test_diagrams_listing(capsys):
    code, out, _ = run(capsys, "diagrams", "P2:d=4", "--genus", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 13
    objs = [json.loads(line) for line in lines]
    assert sum(o["nu"] for o in objs if o["multiplicity"] == "1") == 92
    assert all(o["family"] == "P2" and o["floors"] == 4 for o in objs)

    code, _, err = run(capsys, "diagrams", "polygon:(0,0),(2,1),(0,2)")
    assert code == 3


PATHS_P2_D3 = """\
{"points": [[0, 0], [0, 1], [0, 2], [0, 3], [1, 0], [1, 1], [1, 2], [2, 0], [3, 0]], "mu_plus": "0", "mu_minus": "1"}
{"points": [[0, 0], [0, 1], [0, 2], [0, 3], [1, 0], [1, 1], [1, 2], [2, 1], [3, 0]], "mu_plus": "1", "mu_minus": "2"}
{"points": [[0, 0], [0, 1], [0, 2], [0, 3], [1, 0], [1, 1], [2, 0], [2, 1], [3, 0]], "mu_plus": "1", "mu_minus": "1"}
{"points": [[0, 0], [0, 1], [0, 2], [0, 3], [1, 0], [1, 2], [2, 0], [2, 1], [3, 0]], "mu_plus": "y^(1/2)+y^(-1/2)", "mu_minus": "y^(1/2)+y^(-1/2)"}
{"points": [[0, 0], [0, 1], [0, 2], [0, 3], [1, 1], [1, 2], [2, 0], [2, 1], [3, 0]], "mu_plus": "1", "mu_minus": "3"}
{"points": [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2], [2, 0], [2, 1], [3, 0]], "mu_plus": "2", "mu_minus": "1"}
{"points": [[0, 0], [0, 1], [0, 3], [1, 0], [1, 1], [1, 2], [2, 0], [2, 1], [3, 0]], "mu_plus": "0", "mu_minus": "y^(1/2)+y^(-1/2)"}
{"points": [[0, 0], [0, 2], [0, 3], [1, 0], [1, 1], [1, 2], [2, 0], [2, 1], [3, 0]], "mu_plus": "0", "mu_minus": "y^(1/2)+y^(-1/2)"}
"""


def test_paths_listing(capsys):
    # the bytes are fixed here, not rebuilt from the code that prints them;
    # the mu_plus * mu_minus at y=1 sum to N(3) = 12
    assert run(capsys, "paths", "P2:d=3") == (0, PATHS_P2_D3, "")
    assert run(capsys, "paths", "P2:d=3", "--genus", "1") == (0, (
        '{"points": [[0, 0], [0, 1], [0, 2], [0, 3], [1, 0], [1, 1], [1, 2], [2, 0], '
        '[2, 1], [3, 0]], "mu_plus": "1", "mu_minus": "1"}\n'), "")


def test_paths_respects_lambda_flag(capsys):
    code, default_out, _ = run(capsys, "paths", "P2:d=3")
    code2, flipped_out, _ = run(capsys, "paths", "P2:d=3", "--lambda", "lex:-x,-y")
    assert code == code2 == 0
    assert default_out != flipped_out
    first = json.loads(default_out.splitlines()[0])
    flipped = json.loads(flipped_out.splitlines()[0])
    assert first["points"][0] == [0, 0]
    assert flipped["points"][0] == [3, 0]

    code, _, err = run(capsys, "paths", "P2:d=3", "--lambda", "nonsense")
    assert code == 2


def test_analyze_command(capsys):
    code, out, _ = run(capsys, "analyze", "P2:d=4")
    assert code == 0
    assert "check a_{delta-1}: pass (expected=13 actual=13)" in out

    code, out, _ = run(capsys, "analyze", "P2:d=4", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "name,expected,actual,pass"

    code, out, _ = run(capsys, "analyze", "P2:d=4", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["spec"] == "P2:d=4"
    assert all(c["pass"] for c in obj["checks"])


def test_invariance_command(capsys):
    code, out, _ = run(capsys, "invariance", "P2:d=3")
    assert code == 0
    assert "check lambda invariance: pass" in out
    assert "check engine agreement: pass" in out
    assert "(12, 8)" in out


def test_invocations_are_deterministic(capsys):
    code1, out1, _ = run(capsys, "analyze", "P2:d=3", "--format", "json")
    code2, out2, _ = run(capsys, "analyze", "P2:d=3", "--format", "json")
    assert (code1, out1) == (code2, out2)


@pytest.mark.parametrize("argv", [
    ["count", "P2:d=4", "--genus", "1"],
    ["count", "P1xP1:d=3,r=3", "--engine", "both"],
    ["paths", "P2:d=3"],
    ["diagrams", "P2:d=4", "--genus", "1"],
    ["invariance", "P2:d=3", "--format", "json"],
    ["analyze", "P2:d=4", "--format", "csv"],
], ids=" ".join)
def test_output_does_not_depend_on_the_hash_seed(argv, tmp_path):
    # the engines' sets of tuples and bytes iterate in hash order, which
    # PYTHONHASHSEED changes from one process to the next
    src = str(Path(refinedcount.__file__).parents[1])
    results = []
    for seed in ("0", "987654"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   REFINED_COUNT_CACHE=str(tmp_path / f"cache-{seed}.jsonl"),
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "refinedcount.cli", *argv],
                              env=env, capture_output=True, text=True)
        results.append((proc.returncode, proc.stdout, proc.stderr))
    assert results[0] == results[1]
    assert results[0][0] == 0 and results[0][1]


@pytest.mark.parametrize("argv", [["paths", "P2:d=5"], ["diagrams", "P2:d=6"]], ids=" ".join)
def test_a_listing_whose_reader_leaves_exits_141_quietly(argv, tmp_path):
    # as under `| head -1`: both listings run to hundreds of kilobytes, more
    # than a pipe holds, and a filter killed by SIGPIPE exits 128 + 13
    src = str(Path(refinedcount.__file__).parents[1])
    env = dict(os.environ, REFINED_COUNT_CACHE=str(tmp_path / "cache.jsonl"),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "refinedcount.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"{")
    proc.stdout.close()
    assert proc.wait(timeout=120) == cli.EXIT_BROKEN_PIPE == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()
