"""Every script under scripts/ compiles and imports against the package, so a
deleted or renamed package name cannot break one silently.  Importing runs no
script: each guards its entry point with ``if __name__ == "__main__"``.  The
tile buffer table also runs once, at one repeat, so its code is exercised."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert {"tile_buffer_table.py"} <= {p.name for p in SCRIPTS}


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
