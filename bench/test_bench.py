"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TINY = [replace(workloads.WORKLOADS["grid-L1024"], name="tiny-grid", dims=(12, 9), lengths=(64,)),
        replace(workloads.WORKLOADS["length-sweep"], name="tiny-sweep", dims=(12, 9),
                lengths=(32, 64))]
SEED = 3


def _reference(w, seed=SEED) -> dict:
    """A reference entry built the way make_reference.py builds one."""
    _, records, _ = workloads.run_repetition(w, seed, time.perf_counter)
    keys = sorted(records)
    return {"fixed": {k: records[k].fixed for k in keys},
            "mean_inaccuracy_max": verify.mean_inaccuracy(records),
            "digests": {str(seed): " ".join(records[k].digest for k in keys)}}


def _traced(w, seed=SEED):
    tracer = spans.Tracer()
    with tracer.installed(), tracer.root("rep") as root:
        wall, records, _ = workloads.run_repetition(w, seed, time.perf_counter)
    return tracer, root, wall, records


@pytest.mark.parametrize("w", TINY, ids=lambda w: w.name)
def test_traced_outputs_equal_untraced(w):
    _, plain, _ = workloads.run_repetition(w, SEED, time.perf_counter)
    _, _, _, traced = _traced(w)
    assert {k: r.digest for k, r in traced.items()} == {k: r.digest for k, r in plain.items()}


@pytest.mark.parametrize("w", TINY, ids=lambda w: w.name)
def test_spans_nest_and_self_times_fit_the_wall(w):
    tracer, root, wall, _ = _traced(w)
    by_id = {rec[0]: rec for rec in tracer.spans}
    runs = [rec for rec in tracer.spans if rec[1] == spans.RUN_SPAN]
    assert len(runs) == len(w.configs(SEED)) * max(1, w.sweep_seeds)
    for rec in tracer.spans:
        if rec[0] == root[0]:
            continue
        parent = by_id[rec[4]]
        assert parent[2] <= rec[2] <= rec[3] <= parent[3]
        if rec[1] not in (spans.RUN_SPAN, "harness.sweep"):
            run_span = by_id[rec[5]]
            assert run_span[1] == spans.RUN_SPAN
            assert run_span[2] <= rec[2] <= rec[3] <= run_span[3]
    under_root = [rec for rec in tracer.spans if rec[0] != root[0]]
    self_s = spans.self_times(under_root)
    assert all(s >= 0 for s in self_s.values())
    assert sum(self_s.values()) <= wall
    layer = spans.layer_metrics(tracer.spans, root[0])
    assert layer["harness.blocks"] >= len(runs)
    assert layer["rng.uniforms.draws"] > 0 and layer["lfsr.sequence.values"] > 0


def test_metric_names_are_valid():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer, root, _, _ = _traced(TINY[0])
    layer = set(spans.layer_metrics(tracer.spans, root[0])) | {"synth.inputs.s", "trace.overhead_s"}
    declared = {m["name"] for m in bench["per_layer"]}
    assert layer == declared
    assert {m["name"] for m in bench["end_to_end"]} == set(run.END_TO_END_UNITS)
    names = declared | set(run.END_TO_END_UNITS) | set(verify.PAPER_EXPECTED) | {"paper.gap_pp"}
    assert all(NAME.fullmatch(n) for n in names)
    assert all(run.layer_unit(n) == m["unit"] for n, m in
               ((m["name"], m) for m in bench["per_layer"]))


def test_reference_digests_pass_and_corruption_counts_as_failed():
    w = TINY[0]
    entry = _reference(w)
    _, records, _ = workloads.run_repetition(w, SEED, time.perf_counter)
    assert verify.Checker(entry, SEED).check(records) == ([], [])

    digests = entry["digests"][str(SEED)].split()
    digests[4] = "0" * len(digests[4])
    entry["digests"][str(SEED)] = " ".join(digests)
    failed, _ = verify.Checker(entry, SEED).check(records)
    assert len(failed) == 1 and sorted(entry["fixed"])[4] in failed[0]


def test_unknown_seed_checks_invariants_and_repeatability():
    w = TINY[0]
    entry = _reference(w)
    checker = verify.Checker(entry, SEED + 100)
    _, records, _ = workloads.run_repetition(w, SEED, time.perf_counter)
    assert checker.check(records) == ([], [])
    key = sorted(records)[0]
    changed = dict(records, **{key: replace(records[key], digest="f" * workloads.DIGEST_HEX)})
    failed, _ = checker.check(changed)
    assert len(failed) == 1 and "first repetition" in failed[0]

    worse = {k: replace(r, inaccuracy=10 * r.inaccuracy + 1) for k, r in records.items()}
    assert verify.Checker(entry, SEED + 100).check(worse)[1]


def test_a_run_that_raises_counts_as_failed():
    w = TINY[0]
    entry = _reference(w)
    _, records, _ = workloads.run_repetition(w, SEED, time.perf_counter)
    key = sorted(records)[2]
    failed, _ = verify.Checker(entry, SEED).check(dict(records, **{key: ValueError("boom")}))
    assert failed == [f"{key}: raised ValueError: boom"]


def test_paper_energy_cuts_are_checked():
    w = replace(TINY[0], lengths=(1024,))
    _, records, _ = workloads.run_repetition(w, SEED, time.perf_counter)
    summary = workloads.paper_summary(records)
    assert verify.check_paper(summary) == []
    summary["paper.stoch_vs_mtj_pct.analytic"] += 1.0
    assert len(verify.check_paper(summary)) == 1


def test_logical_bits_count_the_streams_asked_for():
    w = TINY[0]
    per_pixel = 5 + 9 + 2 + 13 + 33
    assert w.logical_bits() == 12 * 9 * per_pixel * 3 * 64


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "grid-L1024",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
