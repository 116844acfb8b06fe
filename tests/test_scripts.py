"""Every script under scripts/ compiles and imports against the package, so a
deleted or renamed package name cannot break one silently.  Importing runs no
script: each guards its entry point with ``if __name__ == "__main__"``.  The
tile buffer table also runs once, at one repeat, so its code is exercised; the
A/B verdict is checked on fixed samples, without running the benchmark."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert {"ab_pairs.py", "tile_buffer_table.py"} <= {p.name for p in SCRIPTS}


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"_script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports_without_running(path):
    compile(path.read_text(), str(path), "exec")
    assert callable(_load(path).main)


def test_tile_buffer_table_prints_one_row_per_row_length():
    path = ROOT / "scripts" / "tile_buffer_table.py"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, str(path), "--repeats", "1"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    # a title line, a header line, then one row per row length
    lines = done.stdout.splitlines()
    assert [int(line.split()[0]) for line in lines[2:]] == list(_load(path).ROW_LENGTHS)


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
