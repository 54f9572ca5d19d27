"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import measure  # noqa: E402
import workloads  # noqa: E402
from repro.db.client import WeaverClient  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = dict(seconds=0.6, num_vertices=120, setups=1)


@pytest.fixture(autouse=True)
def _sockets_in_checkout():
    with measure.socket_dir():
        yield


def _units(spec_key):
    return {m["name"]: m["unit"] for m in SPEC[spec_key]}


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_emits_every_metric_with_its_unit(name, trace):
    record = measure.run_workload(name, seed=3, trace=trace, **TINY)
    assert record["correct"], record["errors"]
    assert record["failed"] == 0 and record["attempted"] >= 1
    want = _units("per_layer" if trace else "end_to_end")
    got = {k: m["unit"] for k, m in record["metrics"].items()}
    assert got == want
    for metric in record["metrics"].values():
        assert isinstance(metric["value"], float)
    prov = record["provenance"]
    assert prov["cpu_count"] and prov["seed"] == 3
    assert sum(prov["shard_vertices"].values()) == 120


def _corrupting(monkeypatch, program_name, corrupt):
    original = WeaverClient.run_program

    def run_program(self, program, start, params=None, **kwargs):
        result = original(self, program, start, params, **kwargs)
        if program.name == program_name:
            corrupt(result.results)
        return result

    monkeypatch.setattr(WeaverClient, "run_program", run_program)


def test_corrupted_count_is_caught(monkeypatch):
    def off_by_one(results):
        results[0] += 1

    _corrupting(monkeypatch, "count_edges", off_by_one)
    record = measure.run_workload("tao_write_direct", seed=5, trace=False,
                                  **TINY)
    assert not record["correct"]
    assert record["failed"] >= 1
    assert any("count_edges" in e for e in record["errors"])


def test_corrupted_bfs_is_caught(monkeypatch):
    _corrupting(monkeypatch, "bfs", lambda results: results.pop())
    record = measure.run_workload("traverse", seed=5, trace=False, **TINY)
    assert not record["correct"]
    assert record["failed"] == record["attempted"]


def test_check_sees_lost_write():
    wl = workloads.WORKLOADS["tao_write"]
    inputs = workloads.make_inputs(wl, seed=1, num_vertices=50)
    src, dst, handle = inputs.edges[0]
    log = [
        workloads.Sample(("delete_edge", src, handle), None, 0.0, 0.0, False),
        workloads.Sample(("count_edges", src), sum(
            1 for e in inputs.edges if e[0] == src), 0.0, 0.0, True),
    ]
    errors = workloads.check(wl, inputs, log)
    assert [index for index, _ in errors] == [1]


def test_layer_timer_restores_entry_points():
    import layers

    before = {(owner, name): vars(owner)[name]
              for _, owner, name in layers.ENTRY_POINTS}
    with layers.LayerTimer():
        assert vars(WeaverClient)["run_program"] is not \
            before[(WeaverClient, "run_program")]
    after = {(owner, name): vars(owner)[name]
             for _, owner, name in layers.ENTRY_POINTS}
    assert after == before


def test_layer_self_time_excludes_children():
    import layers

    ticks = iter(range(100))
    timer = layers.LayerTimer(entry_points=(), clock=lambda: next(ticks))
    inner = timer._wrap("store.commit", lambda: None)
    outer = timer._wrap("gatekeeper.commit", lambda: inner())
    outer()
    assert timer.seconds["gatekeeper.commit"] == 3
    assert timer.self_seconds["gatekeeper.commit"] == 2
    assert timer.self_seconds["store.commit"] == 1
    rows = {row[0]: row for row in timer.rows(wall=10)}
    assert rows["unattributed"][2] == 7


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "tao_write",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _ticks(busy, steal):
    return [busy, 0, 0, 0, 0, 0, 0, steal, 0, 0]


def _slices(*marks):
    slices = measure.Slices()
    slices.marks = [(t, _ticks(busy, steal), t) for t, busy, steal in marks]
    return slices


def _reads(*times):
    return [workloads.Sample(("get_node", "n0"), None, t, 0.001, True)
            for t in times]


def test_slices_skip_seconds_the_host_stole():
    # The middle second lost a third of its processor time to steal.
    slices = _slices((0.0, 0, 0), (1.0, 100, 0), (2.0, 200, 50),
                     (3.0, 300, 50))
    samples, rate, cpu, note = slices.select(_reads(0.1, 0.2, 1.5, 2.1,
                                                    2.2, 2.3))
    assert [s.started for s in samples] == [0.1, 0.2, 2.1, 2.2, 2.3]
    assert rate == 2.5 and cpu == 2.0
    assert note == {"slices": 3, "clean_slices": 2, "used": "clean"}


def test_slices_use_every_second_when_few_are_clean():
    slices = _slices((0.0, 0, 0), (1.0, 100, 0), (2.0, 200, 50),
                     (3.0, 300, 100), (4.0, 400, 150), (5.0, 500, 200))
    samples, _, _, note = slices.select(_reads(0.5, 1.5, 2.5, 3.5, 4.5))
    assert len(samples) == 5
    assert note["used"] == "all" and note["clean_slices"] == 1
