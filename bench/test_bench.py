"""Tests of the benchmark's own checks, tracer and process handling.

Run from the repository root with ``python3 -m pytest bench``.
"""
from __future__ import annotations

import importlib
import json
import os
import re
import subprocess
import sys

import pytest

import checks
import run
import spawner
import tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.fixture
def helper(_at_root):
    with spawner.Spawner() as sp:
        yield sp


def fibsemi(*argv: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, "-m", "fibsemi", *argv], env=env,
                          capture_output=True, text=True, check=True).stdout


def replace_cell(csv_text: str, row: int, column: str, value: str) -> str:
    lines = csv_text.splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    cells[header.index(column)] = value
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


# -- verify ----------------------------------------------------------------

@pytest.fixture(scope="module")
def verify_12() -> str:
    return fibsemi("verify", "12")


def test_verify_check_accepts_program_output(verify_12):
    assert checks.check_verify_text(verify_12, 12) == []


@pytest.mark.parametrize("perturb", [
    lambda t: t.replace("a=7 m=13 ok", "a=7 m=13 FAIL\n  mismatch: oracle-genus"),
    lambda t: re.sub(r"(a=9 m=34 ok)", r"\1 skipped[oracle]", t),
    lambda t: t.replace("a=12 m=144", "a=12 m=145"),
    lambda t: "\n".join(line for line in t.splitlines() if not line.startswith("a=5 ")),
    lambda t: "",
])
def test_verify_check_rejects_perturbed_output(verify_12, perturb):
    assert checks.check_verify_text(perturb(verify_12), 12)


def test_verify_check_rejects_skipped_oracle():
    out = fibsemi("verify", "12", "--oracle-bound", "100")
    assert any("skipped" in p for p in checks.check_verify_text(out, 12))


# -- CSV tables against a reference ----------------------------------------

@pytest.fixture(scope="module")
def small_table() -> tuple[str, dict]:
    out = fibsemi("table", "0", "60", "--format", "csv")
    rows, problems = checks.named_columns(out, checks.SWEEP_COLUMNS)
    assert problems == []
    return out, {"rows": len(rows), "sha256": checks.digests(rows)}


def table_problems(out: str, ref: dict, seed: int = 0) -> list[str]:
    rows, problems = checks.named_columns(out, checks.SWEEP_COLUMNS)
    return problems or checks.compare_reference(rows, ref) + checks.spot_check_sweep(rows, 0, seed)


def test_table_check_accepts_other_renderings(small_table):
    out, ref = small_table
    assert table_problems(out, ref) == []
    lines = out.splitlines()
    extra = "\n".join(f"{line},{'extra' if i == 0 else i}" for i, line in enumerate(lines))
    assert table_problems(extra, ref) == []
    reordered = "\n".join(",".join(reversed(line.split(","))) for line in lines)
    assert table_problems(reordered, ref) == []
    quoted = "\n".join(",".join(f'"{c}"' for c in line.split(",")) for line in lines)
    assert table_problems(quoted, ref) == []


@pytest.mark.parametrize("column", checks.SWEEP_COLUMNS)
def test_table_check_rejects_any_changed_value(small_table, column):
    out, ref = small_table
    assert table_problems(replace_cell(out, 40, column, "7"), ref)


def test_table_check_rejects_missing_or_extra_rows(small_table):
    out, ref = small_table
    assert table_problems(out.rsplit("\n", 2)[0] + "\n", ref)
    assert table_problems(out + out.splitlines()[-1] + "\n", ref)
    assert table_problems(out.replace("frobenius", "F"), ref)


def test_sweep_spot_check_is_independent_of_the_reference(small_table):
    out, _ = small_table
    rows, _ = checks.named_columns(out, checks.SWEEP_COLUMNS)
    last = rows[-1]
    for i, delta in ((3, 1), (4, 1), (1, 1)):  # frobenius, genus, m
        bad = rows[:-1] + [last[:i] + (last[i] + delta,) + last[i + 1:]]
        assert checks.spot_check_sweep(bad, 0, seed=5)
    assert checks.spot_check_sweep(rows, 0, seed=5) == []


def test_apery_spot_check():
    out = fibsemi("apery", "12", "--format", "csv")
    rows, problems = checks.named_columns(out, checks.APERY_COLUMNS)
    assert problems == [] and checks.spot_check_apery(rows, 12, seed=3) == []
    x, beta, w = rows[-1]
    assert checks.spot_check_apery(rows[:-1] + [(x, beta, w + 1)], 12, seed=3)
    assert checks.spot_check_apery(rows[:-1] + [(x, beta + 1, w)], 12, seed=3)
    assert checks.spot_check_apery(rows[:-1], 12, seed=3)


@pytest.mark.parametrize("name,column", [("sweep", "genus"), ("apery", "w")])
def test_committed_reference_matches_program(name, column):
    wl = run.WORKLOADS[name]
    out = fibsemi(*wl.argv)
    assert wl.check(out, 11) == []
    row = checks.load_reference()[name]["rows"] // 2
    value = checks.named_columns(out, (column,))[0][row][0]
    assert wl.check(replace_cell(out, row, column, str(value + 1)), 11)


# -- tracer ----------------------------------------------------------------

def strip_ms(text: str) -> str:
    return re.sub(r"\d+ms", "ms", text)


@pytest.mark.parametrize("argv", [
    ("table", "0", "40", "--format", "csv"),
    ("apery", "10", "--format", "csv"),
    ("info", "30", "--format", "json"),
    ("verify", "12"),
])
def test_traced_stdout_equals_untraced(helper, argv):
    traced = helper.spawn([run.TRACER, *argv])
    plain = helper.spawn(["-m", "fibsemi", *argv])
    assert traced.exit_code == plain.exit_code == 0
    assert strip_ms(traced.stdout) == strip_ms(plain.stdout)


def test_self_times_reconcile_with_traced_wall(helper):
    call = helper.spawn([run.TRACER, "verify", "12"])
    report = run._trace_report(call)
    spans = report["spans"]
    total_self = sum(s["self_s"] for s in spans.values())
    assert total_self == pytest.approx(spans["cli.main"]["total_s"], rel=1e-9, abs=1e-9)
    assert all(s["self_s"] >= 0 for s in spans.values())
    assert 0 < call.wall_s - total_self < call.wall_s
    assert report["counters"]["semigroup_core.oracle_instances"] == 10
    assert report["counters"]["semigroup_core.oracle_instances_failed"] == 0


def test_tracer_wraps_names_imported_into_other_modules(helper):
    # 55 residues at a = 10: one beta call in fib_family and one in cli per row
    report = run._trace_report(helper.spawn([run.TRACER, "apery", "10", "--format", "csv"]))
    assert report["spans"]["fibonacci.beta"]["calls"] == 2 * 55
    assert report["counters"]["fib_family.family_apery.entries"] == 55


@pytest.fixture
def in_process_fibsemi():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        yield [importlib.import_module(m) for m in tracer.MODULES]
    finally:
        sys.path.remove(src)


def test_tracer_restores_originals(in_process_fibsemi):
    modules = in_process_fibsemi
    fibonacci, fib_family = sys.modules["fibsemi.fibonacci"], sys.modules["fibsemi.fib_family"]
    classes = [getattr(sys.modules[f"fibsemi.{mod}"], cls)
               for mod, by_cls in tracer.METHODS.items() for cls in by_cls]
    before = [dict(vars(m)) for m in modules]
    class_before = [dict(vars(c)) for c in classes]
    original_beta = fibonacci.beta
    with tracer.Tracer():
        assert fib_family.beta is not original_beta
        assert fib_family.beta is fibonacci.beta is sys.modules["fibsemi.cli"].beta
    assert [dict(vars(m)) for m in modules] == before
    assert [dict(vars(c)) for c in classes] == class_before


def test_oracle_failures_are_counted(in_process_fibsemi):
    from fibsemi.semigroup_core import NumericalSemigroup, ResourceLimit

    with tracer.Tracer() as t:
        NumericalSemigroup([5, 7]).n_count()
        starved = NumericalSemigroup([5, 7], cell_limit=10)
        for _ in range(2):
            with pytest.raises(ResourceLimit):
                starved.n_count()
    assert t.counters["semigroup_core.oracle_instances"] == 2
    assert t.counters["semigroup_core.oracle_instances_failed"] == 1


# -- process handling and output contract ----------------------------------

def test_peak_rss_is_per_child(helper):
    big = helper.spawn(["-c", "b = b'x' * 100_000_000"])
    small = helper.spawn(["-c", "pass"])
    assert big.peak_rss_mb > 100
    assert small.peak_rss_mb < 50


def test_timeout_kills_child(helper):
    call = helper.spawn(["-c", "import time; time.sleep(30)"], timeout=0.5)
    assert call.exit_code is None
    assert run.problems_of(call, lambda out: []) == ["killed at the time limit"]


def test_percentile_with_ten_beyond():
    assert run.percentile_with_ten_beyond([1.0] * 10) is None
    assert run.percentile_with_ten_beyond([float(i) for i in range(20)]) == (50, 9.0)


def test_metric_names_match_benchmark_json(helper):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    tiny = run.Workload(("verify", "5"), lambda out, seed: checks.check_verify_text(out, 5))
    e2e_run, e2e, _ = run.end_to_end(helper, tiny, 0, 0.01)
    layer_run, layer, _ = run.per_layer(helper, tiny, 0, 0.01)
    assert e2e_run.failures == layer_run.failures == []
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert list(layer) == [m["name"] for m in spec["per_layer"]]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_refuses_to_run_without_the_program():
    bench_dir = os.path.join(ROOT, "bench")
    proc = subprocess.run([sys.executable, "run.py", "--workload", "verify", "--seconds", "1"],
                          cwd=bench_dir, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
