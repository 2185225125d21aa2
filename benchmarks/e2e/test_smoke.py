"""Smoke test of bench_e2e at ``--smoke`` sizes (collected by tier 1).

Checks the contract between ``BENCHMARK.json`` and what the runner
prints, that no op fails, that a workload's inputs are a pure function
of ``--seed``, and that count-type layer metrics repeat exactly on the
serial workloads.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import run as runner  # noqa: E402  (needs HERE on the path)

SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: One workload of each kind that runs on one thread.
SERIAL = ["dtw_single", "hausdorff_batch"]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


@functools.lru_cache(maxsize=None)
def smoke(workload: str, trace: int, seed: int = 0, repeat: int = 0):
    """One in-process smoke run: its ``--out`` record and the last
    line it printed."""
    printed = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(printed):
        out = Path(tmp) / "record.json"
        status = runner.main(["--workload", workload, "--smoke",
                              "--trace", str(trace), "--seed", str(seed),
                              "--out", str(out)])
        assert status == 0
        return (json.loads(out.read_text()),
                printed.getvalue().strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    import layers
    import workloads
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert WORKLOADS == list(workloads.WORKLOADS)
    assert {(m["name"], m["unit"], m["better"])
            for m in SPEC["per_layer"]} == {
        (name, unit, better)
        for name, (unit, better) in layers.PER_LAYER.items()}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in SPEC["end_to_end"])


#: Tracing on: every workload (a traced run has untraced rounds too).
#: Tracing off: one workload of each kind, they share the rest.
RUNS = ([(name, 1, "per_layer") for name in WORKLOADS]
        + [(name, 0, "end_to_end") for name in
           ("dtw_single", "hausdorff_batch", "hausdorff_serve")])


@pytest.mark.parametrize("workload, trace, key", RUNS)
def test_every_metric_is_printed_and_no_op_fails(workload, trace, key):
    record, last_line = smoke(workload, trace)
    printed = json.loads(last_line)
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}
    assert printed["correct"] and printed["failed"] == 0
    assert printed["attempted"] >= 1
    assert printed["metrics"] == record["metrics"]
    assert {(name, m["unit"]) for name, m in printed["metrics"].items()} \
        == {(m["name"], m["unit"]) for m in SPEC[key]}
    if trace == 0:
        assert all(m["value"] > 0 for m in printed["metrics"].values())


@pytest.mark.parametrize("workload", SERIAL)
def test_inputs_and_layer_counts_repeat_exactly(workload):
    first, _ = smoke(workload, 1)
    again, _ = smoke(workload, 1, repeat=1)
    assert first["inputs"] == again["inputs"]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert counts
    for name in counts:
        assert first["metrics"][name] == again["metrics"][name], name


def test_another_seed_gives_other_inputs():
    import workloads
    from repro.datasets import generate_dataset, preprocess
    data = preprocess(generate_dataset("t-drive", scale=0.001, seed=1))
    digests = []
    for seed in (0, 0, 1):
        stream = workloads.QueryStream(data, seed)
        stream.cold_round()
        stream.hot_jittered()
        digests.append(stream.digest())
    assert digests[0] == digests[1] != digests[2]
