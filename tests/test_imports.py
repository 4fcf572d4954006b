"""What an import loads: each check runs in a fresh interpreter, since this
process has long since imported every module."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import commqual

SRC = Path(commqual.__file__).resolve().parent.parent


def run_python(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def loaded_after(statement):
    out = run_python(f"import sys\n{statement}\n"
                     "print(' '.join(m for m in sys.modules if m.startswith('commqual')))")
    return set(out.split())


def test_graph_import_loads_graph_alone():
    assert loaded_after("import commqual.graph") == {"commqual", "commqual.graph"}


@pytest.mark.parametrize("package,left_out", [
    ("commqual.graph", "dataclasses"),
    ("commqual.graph", "logging"),
    # the library reports dropped edges as counts; nothing configures logging
    ("commqual.cli", "logging"),
])
def test_import_leaves_module_out(package, left_out):
    out = run_python(f"import sys\nimport {package}\n"
                     f"print({left_out!r} in sys.modules)")
    assert out == "False\n"


def test_cli_import_leaves_bench_out():
    loaded = loaded_after("import commqual.cli")
    assert "commqual.engine" in loaded
    assert "commqual.bench" not in loaded


@pytest.mark.parametrize("name,module", [
    ("InfoMetrics", "info_metrics"),
    ("MatchingMetrics", "matching_metrics"),
    ("PairMetrics", "pair_metrics"),
])
def test_result_type_import_leaves_engine_out(name, module):
    loaded = loaded_after(f"from commqual import {name}")
    assert f"commqual.{module}" in loaded
    assert "commqual.engine" not in loaded


def test_every_top_level_name_resolves():
    for package in ("commqual", "commqual.engine"):
        out = run_python(
            f"import {package} as package\n"
            "print([n for n in package.__all__ if not hasattr(package, n)])")
        assert out == "[]\n", package


def test_unknown_top_level_name_raises():
    run_python(
        "import commqual\n"
        "try:\n"
        "    commqual.nope\n"
        "except AttributeError as exc:\n"
        "    assert 'nope' in str(exc)\n"
        "else:\n"
        "    raise SystemExit('no AttributeError')\n"
        "from commqual import cli, graph, intrinsic_metrics  # submodules still import\n")
