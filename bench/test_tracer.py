"""Checks of the benchmark itself: tracer wrapping, spans hit, stored data.

Run from the repository root:

    python3 -m pytest -q bench/test_tracer.py
"""

from __future__ import annotations

import importlib
import json
import sys
import time

import pytest

import run
from tracer import SPANS, TARGETS, Tracer

sys.path.insert(0, str(run.SRC))

def _originals():
    out = []
    for _, mod, path in TARGETS:
        owner = importlib.import_module(f"cangeo.{mod}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        out.append(vars(owner)[attr])
    return out


def _cangeo_modules():
    importlib.import_module("cangeo.cli")
    return [m for n, m in sys.modules.items()
            if n == "cangeo" or n.startswith("cangeo.")]


def test_install_rebinds_every_alias_and_uninstall_restores():
    originals = _originals()
    functions = [f for f in originals if not isinstance(f, classmethod)]
    before = {(m.__name__, a): v for m in _cangeo_modules()
              for a, v in vars(m).items()}
    tracer = Tracer()
    tracer.install()
    try:
        for module in _cangeo_modules():
            for attr, value in vars(module).items():
                assert not any(value is f for f in functions), (
                    f"{module.__name__}.{attr} still refers to the untraced "
                    "function")
        cli = importlib.import_module("cangeo.cli")
        assert cli.smooth_cover_exists.__wrapped__ is importlib.import_module(
            "cangeo.classify").smooth_cover_exists.__wrapped__
        # The package attribute is the re-exported function, not the module.
        assert importlib.import_module("cangeo").classify.__wrapped__ is (
            importlib.import_module("cangeo.classify").classify.__wrapped__)
        cfg = importlib.import_module("cangeo.fatpoints").PointConfiguration
        assert vars(cfg)["random"].__func__.__wrapped__ is next(
            f for f in originals if isinstance(f, classmethod)).__func__
    finally:
        tracer.uninstall()
    after = {(m.__name__, a): v for m in _cangeo_modules()
             for a, v in vars(m).items()}
    assert all(after[key] is value for key, value in before.items())
    assert _originals() == originals


def test_every_span_is_reached_by_some_workload():
    assert set().union(*run.SPANS_HIT.values()) == set(SPANS)
    assert set(run.SPANS_HIT) == set(run.WORKLOADS)


@pytest.mark.parametrize("seed", [run.DEFAULT_SEED, run.HELDOUT_SEED])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_run_hits_expected_spans_and_keeps_stdout(workload, seed):
    main = importlib.import_module("cangeo.cli").main
    check = run.OutputCheck(workload, seed)
    invocations = [argv + ["--seed", str(seed)]
                   for argv in run.WORKLOADS[workload]]
    tracer = Tracer()
    tracer.install()
    try:
        _, outcomes = run.run_inprocess(main, invocations,
                                        time.perf_counter() + 600)
    finally:
        tracer.uninstall()
    for index, (rc, out, _) in enumerate(outcomes):
        assert rc == 0
        assert check.ok(index, out), f"traced stdout of {invocations[index]}"
    snap = tracer.snapshot()
    for span in SPANS:
        calls = snap.get(span, {}).get("calls", 0)
        assert (calls > 0) == (span in run.SPANS_HIT[workload]), span
    prefix = run.NEVER_CALLED.get(workload)
    if prefix:
        assert not any(s.startswith(prefix) for s in run.SPANS_HIT[workload])
    metrics = run.layer_metrics(snap)
    assert set(metrics) == {name for name, _ in run.PER_LAYER}


def test_inprocess_failures_are_outcomes_not_crashes():
    def crash(argv):
        raise RuntimeError("inconsistent zones")

    def hang(argv):
        while True:
            pass

    _, outcomes = run.run_inprocess(crash, [["x"]], time.perf_counter() + 60)
    assert outcomes[0][0] == 1 and b"inconsistent zones" in outcomes[0][2]
    _, outcomes = run.run_inprocess(hang, [["x"]], time.perf_counter() + 0.2)
    assert outcomes[0][0] == 1 and b"timed out" in outcomes[0][2]
    _, outcomes = run.run_inprocess(crash, [["x"]], time.perf_counter() - 1)
    assert outcomes[0][0] == 1 and b"deadline" in outcomes[0][2]


def test_declared_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER


def test_reference_program_runs_without_cangeo():
    code = ("import runpy, sys; "
            f"runpy.run_path({str(run.REFERENCE)!r}, run_name='__main__'); "
            "sys.exit(any(m.startswith('cangeo') for m in sys.modules))")
    assert run.spawn([sys.executable, "-c", code], 60)["rc"] == 0


def test_stored_hashes_cover_every_invocation_at_both_seeds():
    stored = run.load_hashes()
    assert stored["checked_seeds"] == [run.DEFAULT_SEED, run.HELDOUT_SEED]
    for workload, argvs in run.WORKLOADS.items():
        assert len(stored["seed_free"][workload]) == len(argvs)


def test_seed_free_blanks_only_a_matching_seed_column():
    text = b"k,r,s,seed,flag\r\n12,3,14,7,MATCH\r\n"
    assert run.seed_free(text, 7) == b"k,r,s,seed,flag\r\n12,3,14,SEED,MATCH\r\n"
    assert run.seed_free(text, 8) is None
    assert run.seed_free(b"d,s\r\n2,1\r\n", 7) == b"d,s\r\n2,1\r\n"
    assert run.seed_free(b"k,r,s,seed\r\n12,3\r\n", 7) is None
