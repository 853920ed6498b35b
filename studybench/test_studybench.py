"""Tests of the benchmark's own checks, tracing and command contract.

    PYTHONPATH=src python -m pytest -q studybench
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from checks import L2Capture, check_cells, merge_captures  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Study, Workload, cell_key, run_pass  # noqa: E402

SMALL = Workload(
    geometry="undistorted",
    studies=(Study(("std", "mxd", "lmp", "ead"), 2, (1, 2), (1e-2,)),),
    singles=(("mxd", 2, 1e-6, 2),),
)
T1 = Workload(
    geometry="undistorted",
    studies=(Study(("mxd", "lmp", "ead"), 2, (2, 3, 4), (1.0,)),),
)


def captured_pass(workload, tracer=None):
    capture = L2Capture().install()
    if tracer is not None:
        tracer.install()
    try:
        cells = run_pass(workload)
    finally:
        if tracer is not None:
            tracer.uninstall()
        capture.uninstall()
    assert merge_captures(cells, capture.records) == []
    return cells


@pytest.fixture(scope="module")
def t1_cells():
    return captured_pass(T1)


def failing(fails):
    return {k for k, v in fails.items() if v}


def test_real_cells_pass(t1_cells):
    assert failing(check_cells(t1_cells)) == set()


def test_lmp_presented_as_ead_fails(t1_cells):
    cells = [c for c in copy.deepcopy(t1_cells) if c["key"][0] != "ead"]
    for c in cells:
        if c["key"][0] == "lmp":
            c["key"] = ("ead",) + c["key"][1:]
    assert cell_key("ead", 2, 1.0, 4) in failing(check_cells(cells))


def test_perturbed_deflection_fails(t1_cells):
    cells = copy.deepcopy(t1_cells)
    target = next(c for c in cells if c["key"] == cell_key("mxd", 2, 1.0, 3))
    target["coeffs"] = target["coeffs"] * (1.0 + 1e-6)
    assert failing(check_cells(cells)) == {target["key"]}


def test_perturbed_reported_error_fails(t1_cells):
    cells = copy.deepcopy(t1_cells)
    target = next(c for c in cells if c["key"] == cell_key("ead", 2, 1.0, 2))
    target["l2"] *= 1.0 + 1e-6
    assert target["key"] in failing(check_cells(cells))


def test_perturbed_closed_form_fails(t1_cells, monkeypatch):
    exact = checks.closed_form_w
    monkeypatch.setattr(checks, "closed_form_w", lambda x, y, t: exact(x, y, t) * 1.001)
    assert failing(check_cells(copy.deepcopy(t1_cells))) == {c["key"] for c in t1_cells}


def synthetic(variant, p, t, errors, **extra):
    cells, prev = [], None
    for level, err in enumerate(errors, start=1):
        rate = None if prev is None else float(np.log2(prev / err))
        prev = err
        cell = {
            "key": cell_key(variant, p, t, level),
            "l2": err,
            "rate": rate,
            "error": None,
            "n_dof_primal": 10,
            "n_dof_solved": 10,
            "lump_dev": 1e-15 if variant in ("ad", "ead") else None,
            "unit_weights": True,
        }
        cell.update(extra)
        cells.append(cell)
    return cells


def test_sequence_checks():
    mxd = synthetic("mxd", 2, 1e-4, [1e-2, 1.25e-3, 1.5625e-4])
    locked = synthetic("std", 2, 1e-4, [1e-1, 1e-1, 1e-1])
    assert failing(check_cells(mxd + locked)) == set()
    unlocked = synthetic("std", 2, 1e-4, [1e-2, 1.25e-3, 1.5625e-4])
    assert failing(check_cells(mxd + unlocked)) == {cell_key("std", 2, 1e-4, 3)}
    slow = synthetic("mxd", 2, 1e-4, [1e-2, 5e-3, 2.5e-3])
    assert failing(check_cells(slow)) == {cell_key("mxd", 2, 1e-4, 3)}
    bad_size = synthetic("ead", 2, 1e-4, [1e-2, 1.25e-3, 1.5625e-4], n_dof_solved=30)
    assert len(failing(check_cells(mxd + bad_size))) == 3
    bad_lump = synthetic("ead", 2, 1e-4, [1e-2, 1.25e-3, 1.5625e-4], lump_dev=1e-3)
    assert len(failing(check_cells(mxd + bad_lump))) == 3
    rational = synthetic("ead", 2, 1e-4, [1e-2, 1.25e-3, 1.5625e-4], lump_dev=1e-3, unit_weights=False)
    assert failing(check_cells(mxd + rational)) == set()


def test_thin_pair_check():
    thick = synthetic("mxd", 2, 1e-6, [1.76e-5])
    for thin_err, expect in ((1.77e-5, set()), (0.335, {cell_key("mxd", 2, 1e-8, 1)})):
        thin = synthetic("mxd", 2, 1e-8, [thin_err])
        pair = (thick[0]["key"], thin[0]["key"])
        assert failing(check_cells(thick + thin, pair)) == expect


def test_tracing_changes_no_output_and_reports_every_layer():
    import importlib

    from igaplate import bench

    condense = importlib.import_module("igaplate.condense")
    originals = (bench.l2_error, condense.DirectSolver, condense.condense)
    plain = captured_pass(SMALL)
    tracer = Tracer()
    traced = captured_pass(SMALL, tracer)
    assert [c["l2"] for c in traced] == [c["l2"] for c in plain]
    assert (bench.l2_error, condense.DirectSolver, condense.condense) == originals
    layers = tracer.metrics(wall_s=100.0)
    assert set(layers) | {"unscaled.wall_s", "unscaled.chunk_s"} == set(run.PER_LAYER)
    for name, value in layers.items():
        assert value > 0, name


def test_small_pass_passes_its_checks():
    cells = captured_pass(SMALL)
    assert len(cells) == 9
    assert failing(check_cells(cells)) == set()


def test_benchmark_json_matches_the_command():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    for name, workload in WORKLOADS.items():
        keys = set()
        for s in workload.studies:
            keys |= {
                cell_key(v, s.degree, t, lev)
                for v in s.variants
                for t in s.thicknesses
                for lev in s.levels
            }
        keys |= {cell_key(*c) for c in workload.singles}
        assert set(workload.known_failures) <= keys, name


def test_reference_scaling():
    import reference

    assert reference.chunk() > 0
    assert reference.scaled(2.0, reference.REF_CHUNK_S) == 2.0
    assert reference.scaled(2.0, 2 * reference.REF_CHUNK_S) == 1.0
    sampler = reference.SpeedSampler()
    sampler.start()
    t0 = sampler.clock()
    deadline = time.perf_counter() + 1.0
    while time.perf_counter() < deadline:  # pure-Python work, so the timer can interrupt it
        pass
    wall_s = sampler.clock() - t0
    sampler.stop()
    assert len(sampler.chunk_s) >= 3
    assert abs(sampler.raw_s - wall_s) < 0.01
    assert sampler.scaled_s > 0


def test_speed_sampling_changes_no_output(monkeypatch):
    import reference

    monkeypatch.setattr(reference, "INTERVAL_S", 0.01)  # interrupt the short pass often
    plain = captured_pass(SMALL)
    sampler = reference.SpeedSampler()
    sampler.start()
    try:
        sampled = captured_pass(SMALL)
    finally:
        sampler.stop()
    assert len(sampler.chunk_s) >= 3
    assert [c["l2"] for c in sampled] == [c["l2"] for c in plain]


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "c0_fine",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
