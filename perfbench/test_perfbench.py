"""Self-checks of the benchmark: span arithmetic, BENCHMARK.json against the
code, and wrapper coverage on every workload.

    python3 -m pytest perfbench/test_perfbench.py

The coverage tests run one traced operation per workload (about a minute in
all).  ``solve_newton``, ``solve_wave`` and ``solve_profile`` are imported by
name into other modules, so a tracer that patched only the defining modules
would record zero calls; these tests fail if any workload's main layer
records nothing.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from spans import Span, Tracer, layer_metrics, per_layer_metrics, self_times  # noqa: E402
from worker import run_op  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402


def test_self_time_subtracts_direct_children():
    spans = [Span("cli.main", -1, 0, 0.0, 10.0),
             Span("mfde.solve_newton", 0, 0, 1.0, 7.0),
             Span("mfde.factor", 1, 0, 2.0, 5.0),
             Span("checkpoint.write", 0, 0, 8.0, 9.0)]
    assert self_times(spans) == [3.0, 3.0, 3.0, 1.0]


def test_layer_metrics():
    spans = [Span("diatomic.solve_wave", -1, 0, 0.0, 4.0),
             Span("mfde.solve_newton", 0, 0, 0.0, 4.0, attrs={"n": 2563, "iters": 3}),
             Span("mfde.factor", 1, 0, 1.0, 3.0, attrs={"n": 2563, "nnz": 7}),
             Span("mfde.trisolve", 1, 0, 3.0, 3.5, attrs={"n": 2563})]
    m = layer_metrics(spans, SIZES)
    assert m["mfde.newton_calls.n2563"] == 1
    assert m["mfde.assemble_s.n2563"] == pytest.approx(1.5)
    assert m["mfde.lu_fill_nnz.n2563"] == 7
    assert m["diatomic.newton_per_wave"] == 3


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in per_layer_metrics(SIZES)]
    assert spec["paths"] == ["perfbench"]


def test_uninstall_restores_originals():
    from fputw import continuation, diatomic, mfde

    before = (mfde.solve_newton, diatomic.solve_newton, continuation.solve_wave)
    tracer = Tracer()
    tracer.install()
    try:
        assert diatomic.solve_newton is not before[1]
        assert continuation.solve_wave is not before[2]
    finally:
        tracer.uninstall()
    assert (mfde.solve_newton, diatomic.solve_newton, continuation.solve_wave) == before


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_main_layers_record_calls(name, tmp_path):
    from fputw import cli

    wl = WORKLOADS[name]
    wl.setup(cli.main, 0.0, tmp_path / "inputs")
    tracer = Tracer()
    tracer.install()
    try:
        _, _, misses = run_op(cli.main, wl, 0.0, tmp_path / "inputs", tmp_path / "out", 0, True)
    finally:
        tracer.uninstall()
    assert misses == []
    metrics = layer_metrics(tracer.spans, SIZES)
    assert {n: metrics[n] for n in wl.main_layers if not metrics[n] > 0} == {}
    sizes = {sp.attrs["n"] for sp in tracer.spans if sp.name.startswith("mfde.")}
    assert sizes <= set(SIZES)
