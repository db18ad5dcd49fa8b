"""Tests of the benchmark itself: smoke runs at a tiny size, gates that
must reject wrong answers, the tracer's patching, and the metric lists.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from quatpoly import freealg, oracle, qvars, rewrite, syzygy  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric_names(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[section]]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_tiny(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace == "1" else "end_to_end"
    assert list(result["metrics"]) == metric_names(section)
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert "deterministic counts repeat exactly: yes" in proc.stdout


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "confluence", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def gate_failures(name, seed=3):
    wl = workloads.WORKLOADS[name](seed, "tiny")
    wl.setup()
    outputs, _, _ = workloads.run_operations(wl.operations())
    return sum(1 for ok in wl.gates(outputs) if not ok)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_gates_pass_on_the_engine(name):
    assert gate_failures(name) == 0


def test_confluence_gate_rejects_an_always_ok_check(monkeypatch):
    monkeypatch.setattr(
        rewrite, "check_groebner",
        lambda base, d, multilinear=False, generators=None: rewrite.GroebnerReport((), 0, d),
    )
    assert gate_failures("confluence") == 1  # the negative control


def test_completion_gate_rejects_a_wrong_lead_set(monkeypatch):
    real = rewrite.complete
    monkeypatch.setattr(
        rewrite, "complete", lambda gens, d: rewrite.RuleSet(real(gens, d).rules[1:])
    )
    assert gate_failures("completion") == len(workloads.SIZES["tiny"]["completion"]["cases"])


def test_normal_forms_gate_rejects_an_identity_normalizer(monkeypatch):
    monkeypatch.setattr(rewrite, "normalize", lambda p, base: p)
    monkeypatch.setattr(qvars, "normalize_q", lambda p, n=None, max_degree=None: qvars.split(p))
    assert gate_failures("normal_forms") > 0


def test_normal_forms_gate_rejects_a_normal_but_wrong_answer(monkeypatch):
    # Zero is a normal form, so only the evaluation sample can catch it.
    monkeypatch.setattr(rewrite, "normalize", lambda p, base: freealg.Polynomial())
    assert gate_failures("normal_forms") > 0


def test_oracle_gate_rejects_an_always_passing_zero_test(monkeypatch):
    monkeypatch.setattr(
        oracle, "zero_test", lambda p, trials=100, seed=0, n=None: oracle.ZeroTestResult(True, trials)
    )
    assert gate_failures("oracle_audit") == workloads.SIZES["tiny"]["oracle_audit"]["perturbed"]


def test_oracle_gate_rejects_disagreeing_counts(monkeypatch):
    real = oracle.dimension_check

    def off_by_one(*args, **kw):
        r = real(*args, **kw)
        return type(r)(r.n, r.degree, r.mode, r.total_words, r.rank, r.normal_by_rank,
                       r.normal_factorfree, r.normal_structural + 1)

    monkeypatch.setattr(oracle, "dimension_check", off_by_one)
    assert gate_failures("oracle_audit") == len(workloads.SIZES["tiny"]["oracle_audit"]["dims"])


def test_a_raising_operation_counts_as_failed(monkeypatch):
    def boom(*args, **kw):
        raise ValueError("boom")

    monkeypatch.setattr(rewrite, "complete", boom)
    assert gate_failures("completion") == len(workloads.SIZES["tiny"]["completion"]["cases"])


def test_tracer_patches_where_names_are_looked_up_and_restores_them():
    originals = (rewrite.normalize, oracle.is_normal_factorfree, freealg.Scalar.__mul__)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert oracle.is_normal_factorfree is rewrite.is_normal_factorfree
        assert oracle.is_normal_factorfree is not originals[1]
        assert freealg.Scalar.__rmul__ is freealg.Scalar.__mul__
        n, d = 2, 4
        oracle.dimension_check(n, d, syzygy.gen_vector_syzygies(n), syzygy.gb_vector(n, d))
        rewrite.check_groebner(syzygy.gb_vector(3, 4), 4)
    finally:
        tr.uninstall()
    assert (rewrite.normalize, oracle.is_normal_factorfree, freealg.Scalar.__mul__) == originals
    assert freealg.Scalar.__rmul__ is originals[2]
    m = tr.metrics()
    assert m["rewrite.is_normal_factorfree.calls"] == 2**4
    assert m["oracle.dimension_check.words"] == 2**4
    assert m["rewrite.check_groebner.total_s"] >= m["rewrite.normalize.total_s"] > 0
    assert m["rewrite.normalize.self_s"] <= m["rewrite.normalize.total_s"]
    assert m["rewrite.normalize.calls"] == m["rewrite.check_groebner.obstructions_checked"]


def test_self_time_excludes_child_spans():
    ticks = iter(range(100))
    tr = tracer.Tracer(clock=lambda: float(next(ticks)))
    outer = tr._wrap(0, lambda: inner(), None)
    inner = tr._wrap(1, lambda: None, None)
    outer()  # outer spans ticks 0..3, inner 1..2
    m = tr.metrics()
    first, second = tracer.TARGETS[0][0], tracer.TARGETS[1][0]
    assert m[first + ".total_s"] == 3.0 and m[first + ".self_s"] == 2.0
    assert m[second + ".total_s"] == 1.0 and m[second + ".self_s"] == 1.0
