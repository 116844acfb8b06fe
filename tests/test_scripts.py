"""Every script under scripts/ compiles and imports against the package, so a
deleted or renamed package name cannot break one silently.  Importing runs no
script: each guards its entry point with ``if __name__ == "__main__"``.  The
tile buffer and block budget tables also run once, at one repeat, so their
code is exercised; the A/B verdict is checked on fixed samples, without
running the benchmark."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stochmem.circuits import AppKind

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert {"ab_pairs.py", "block_budget_table.py", "tile_buffer_table.py"} <= \
        {p.name for p in SCRIPTS}


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"_script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports_without_running(path):
    compile(path.read_text(), str(path), "exec")
    assert callable(_load(path).main)


def _run_script(name: str, *args: str) -> list[str]:
    """Stdout lines of scripts/name run with args against the package in src/."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_tile_buffer_table_prints_one_row_per_row_length():
    lines = _run_script("tile_buffer_table.py", "--repeats", "1")
    # a title line, a header line, then one row per row length
    rows = _load(ROOT / "scripts" / "tile_buffer_table.py").ROW_LENGTHS
    assert [int(line.split()[0]) for line in lines[2:]] == list(rows)
    # ns per cell of the draw compare, the draw add and the uint16 ring
    # compare, each with the default and the row-sized buffer, then of the two
    # packs
    assert lines[1].split().count("row-sized") == 3 and "ring" in lines[1].split()
    assert all(len(line.split()) == 2 + 8 and min(map(float, line.split()[2:])) > 0
               for line in lines[2:])


def test_block_budget_table_prints_one_row_per_shape_and_app():
    lines = _run_script("block_budget_table.py", "--repeats", "1", "--budgets", "100e3")
    # a title line, a header line, then one row per (workload, length) and app
    shapes = _load(ROOT / "scripts" / "block_budget_table.py").SHAPES
    assert "k pairs" in lines[0]
    assert [line.split()[:3] for line in lines[2:]] == [
        [workload, str(length), app.value] for workload, _, length in shapes for app in AppKind]
    assert {line.split()[4] for line in lines[2:]} == {"100"}
    # block MB is the largest block's values, four 8-byte values a pair: at
    # most 3.2 MB at 100,000 pairs
    assert all(0 < float(line.split()[6]) <= 3.2 for line in lines[2:])


def test_block_budget_table_with_faults_prints_one_row_per_workload_and_budget():
    lines = _run_script("block_budget_table.py", "--repeats", "1", "--budgets", "50e3,100e3",
                        "--faults")
    shapes = _load(ROOT / "scripts" / "block_budget_table.py").SHAPES
    assert "faults median of 1" in lines[0] and lines[1].split() == ["workload", "budget",
                                                                     "faults"]
    assert [line.split()[:2] for line in lines[2:]] == [
        [workload, budget] for workload in dict.fromkeys(w for w, _, _ in shapes)
        for budget in ("50", "100")]
    assert all(int(line.split()[2]) >= 0 for line in lines[2:])


def test_block_budget_table_with_windows_prints_one_row_per_shape_and_app():
    lines = _run_script("block_budget_table.py", "--repeats", "1", "--windows", "8e6")
    shapes = _load(ROOT / "scripts" / "block_budget_table.py").SHAPES
    assert "window budgets" in lines[0] and "windows" in lines[1].split()
    assert [line.split()[:3] for line in lines[2:]] == [
        [workload, str(length), app.value] for workload, _, length in shapes for app in AppKind]
    # window MB is at most the 1 MB budget, bar a pixel over it
    assert {line.split()[4] for line in lines[2:]} == {"8"}
    assert all(float(line.split()[6]) <= 1.0 for line in lines[2:])


# median 1.0, quartiles 0.98 and 1.02: a parent IQR of 0.04
_PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
# median 1.5, IQR 1.0: wider than a 0.25 bound
_WIDE = [1.0, 2.0] * 5


@pytest.mark.parametrize("parent,change,better,expected", [
    (_PARENT, [v * 0.9 for v in _PARENT], "lower", "gain"),
    # nine wins of ten still count, ties count for neither side
    (_PARENT, [v * 0.9 for v in _PARENT[:9]] + [_PARENT[9]], "lower", "gain"),
    (_PARENT, [v * 0.9 for v in _PARENT[:8]] + _PARENT[8:], "lower", "within bound"),
    # every pair won, but by less than the parent IQR
    (_PARENT, [v - 0.01 for v in _PARENT], "lower", "within bound"),
    (_PARENT, _PARENT, "lower", "within bound"),
    (_PARENT, [v * 1.2 for v in _PARENT], "lower", "within bound"),
    (_PARENT, [v * 1.3 for v in _PARENT], "lower", "regressed"),
    (_PARENT, [v * 1.2 for v in _PARENT], "higher", "gain"),
    (_PARENT, [v * 0.7 for v in _PARENT], "higher", "regressed"),
    (_WIDE, _WIDE, "lower", "unresolved"),
    # every change run reads better than every parent run
    (_WIDE, [0.9] * 10, "lower", "within bound"),
])
def test_ab_verdict_on_fixed_samples(parent, change, better, expected):
    ab = _load(ROOT / "scripts" / "ab_pairs.py")
    assert ab.verdict(parent, change, better, 0.25) == expected


def test_ab_verdict_needs_pairs():
    ab = _load(ROOT / "scripts" / "ab_pairs.py")
    with pytest.raises(ValueError, match="pairs"):
        ab.verdict([1.0, 2.0], [1.0], "lower", 0.25)
