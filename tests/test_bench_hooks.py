"""The benchmark's probes (``bench/probes.py``) wrap ``vmpadmm`` functions by
name.  Installing them here makes a rename or deletion of a wrapped name fail
the test suite rather than the benchmark."""

import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np

import vmpadmm

LAYERS = ("linalg", "schedule", "hpe", "problems", "admm", "cli")
PROBES = Path(__file__).resolve().parent.parent / "bench" / "probes.py"


def load_probes():
    spec = importlib.util.spec_from_file_location("bench_probes", PROBES)
    probes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probes)
    return probes


def snapshot(modules):
    return [dict(vars(m)) for m in modules]


def test_probes_install_and_restore(tmp_path):
    probes = load_probes()
    modules = [vmpadmm] + [importlib.import_module(f"vmpadmm.{layer}") for layer in LAYERS]
    classes = (vmpadmm.admm.VmPadmmRun, vmpadmm.linalg.PsdOperator, vmpadmm.schedule.MetricSchedule)
    before, class_before = snapshot(modules), [dict(vars(c)) for c in classes]
    lapack_before = {name: getattr(np.linalg, name) for name in probes.LAPACK}

    patch = probes.Patcher(modules)
    timeline, tracer = probes.Timeline(), probes.Tracer()
    try:
        timeline.install(vmpadmm, patch)
        tracer.install(vmpadmm, patch)
        # one small solve through every wrapper: signatures must still match
        sched = tmp_path / "schedule.json"
        sched.write_text(json.dumps({
            "H": {"type": "scaled_identity", "scale": 1.0}, "R": {"type": "zero"}, "S": {"type": "zero"},
            "c": {"c0": 0.5, "law": "inverse_square"}, "k_max": 5,
        }))
        code = vmpadmm.cli.main([
            "solve", "--problem", "gen:lasso:6x3:1", "--schedule", str(sched), "--theta", "1.0",
            "--max-iters", "5", "--seed", "1", "--log", str(tmp_path / "run.csv"),
            "--report", str(tmp_path / "run.json"),
        ])
        assert code == 0
        assert "schedule.MetricSchedule.validate" in tracer.names
        assert "linalg.PsdOperator.__init__" in tracer.names
        assert len(timeline.take()[0]) > 0
    finally:
        patch.restore()

    assert snapshot(modules) == before
    assert [dict(vars(c)) for c in classes] == class_before
    assert {name: getattr(np.linalg, name) for name in probes.LAPACK} == lapack_before
