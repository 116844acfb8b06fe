"""Every script under scripts/ compiles and imports against the package, so a
deleted or renamed package name cannot break one silently.  Importing runs no
script: each guards its entry point with ``if __name__ == "__main__"``."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert {"tile_buffer_table.py"} <= {p.name for p in SCRIPTS}


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports_without_running(path):
    compile(path.read_text(), str(path), "exec")
    spec = importlib.util.spec_from_file_location(f"_script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
