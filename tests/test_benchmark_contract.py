"""The names the traced benchmark run rebinds must exist in optsort.

``perfbench/tracing.py`` wraps the functions named in ``SPANNED`` and
``LEAVES`` by module path.  A rename that leaves one of them behind should
fail here, not halfway through a traced benchmark run.
"""

import importlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


# run_path reads the file as it is and leaves no bytecode beside it
tracing = SimpleNamespace(**runpy.run_path(str(TRACING)))


def _resolve(name):
    module, *attrs = name.split(".")
    target = importlib.import_module(f"optsort.{module}")
    for attr in attrs:
        target = getattr(target, attr)
    return target


@pytest.mark.parametrize("name", [*tracing.SPANNED, *tracing.LEAVES])
def test_traced_name_resolves_to_a_callable(name):
    assert callable(_resolve(name))


def test_a_traced_rewrite_records_every_stage(tmp_path):
    spans = tmp_path / "spans.json"
    doc = "asp 1 0 0\n1 1 3 1 2 3 0 0\n2 0 3 1 5 2 9 3 4\n0\n"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(TRACING), str(spans), "call-1", "rewrite", "--sparseness", "2"],
        input=doc,
        capture_output=True,
        text=True,
        env=env,
    )
    assert done.returncode == 0 and done.stderr == ""
    totals = tracing.layer_totals(json.loads(spans.read_text()))
    for name in (
        "network.decompose_sparse#",
        "propagate.propagate_decomposition#",
        "encode.asp_of_network#",
        "rewrite.self_s",
    ):
        assert name in totals, name
    assert totals["network.decompose_sparse#"] == totals["propagate.propagate_decomposition#"]


def test_a_traced_pch_records_its_enumeration_under_run_pch(tmp_path):
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(TRACING), str(spans), "call-1", "pch", "8", "4", "--network", "full"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert done.returncode == 0 and done.stderr == ""
    recorded = json.loads(spans.read_text())["spans"]
    parents = [
        recorded[parent][0]
        for name, _, _, parent, _ in recorded
        if name == "asplang.enumerate_answer_sets_split"
    ]
    assert parents == ["analysis.run_pch"]
