from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from cangeo import cli
from cangeo.classify import BlowupPair, zones
from cangeo.defaults import MAX_TRIALS
from cangeo.fatpoints import FatPointSystem
from cangeo.invariants import h0_normal_of_cover

RUN = [sys.executable, "-m", "cangeo"]


def _child_env():
    """This environment without CANGEO_SEED, and with stdout block-buffered
    into a pipe, as by default, so that output left unflushed at exit
    would be lost."""
    env = dict(os.environ)
    env.pop("CANGEO_SEED", None)
    env.pop("PYTHONUNBUFFERED", None)
    return env


def run_cli(*argv, env_extra=None, timeout=None):
    env = _child_env()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(RUN + list(argv), capture_output=True, env=env,
                          timeout=timeout)


def run_main(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- classify -------------------------------------------------------------

def test_classify_degree1_pair(capsys):
    code, out, _ = run_main(capsys, "classify", "4", "9")
    assert code == 0
    assert "degree1" in out
    assert "mu                42" in out
    assert "mu2               39" in out


def test_classify_json_fields(capsys):
    code, out, _ = run_main(capsys, "classify", "3", "6", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["deformation"] == "degree1"
    assert rec["p_g"] == 4 and rec["chi"] == 5 and rec["c1sq"] == 6
    assert rec["slope"] == "1/9"
    assert rec["rule"] == "listed degree-1 pair"


def test_classify_no_cover_has_null_invariants(capsys):
    code, out, _ = run_main(capsys, "classify", "2", "2", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["very_ample"] == "no"
    assert rec["deformation"] == "not_applicable"
    assert rec["p_g"] is None and rec["mu"] is None


def test_classify_open_case_with_oracle(capsys):
    code, out, _ = run_main(capsys, "classify", "5", "12", "--oracle",
                            "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["alpha_surjective"] == "unknown"
    assert rec["alpha_rank"] == rec["alpha_dim_target"]
    assert rec["oracle_flag"] is None


def test_classify_oracle_agreement(capsys):
    code, out, _ = run_main(capsys, "classify", "3", "5", "--oracle",
                            "--format", "json")
    assert code == 0
    assert json.loads(out)["oracle_flag"] == "MATCH"


def test_classify_rejects_bad_pair():
    proc = run_cli("classify", "1", "5")
    assert proc.returncode == 2
    proc = run_cli("classify", "3", "0")
    assert proc.returncode == 2


# --- table ----------------------------------------------------------------

def test_table_csv_shape_and_dialect():
    proc = run_cli("table", "--d", "3..5", "--s", "5..14", "--format", "csv")
    assert proc.returncode == 0
    raw = proc.stdout.decode()
    assert "\r\n" in raw
    rows = list(csv.DictReader(io.StringIO(raw)))
    assert len(rows) == 30
    by_pair = {(r["d"], r["s"]): r for r in rows}
    assert by_pair[("4", "9")]["mu"] == "42"
    assert by_pair[("4", "9")]["slope"] == "1/5"
    assert by_pair[("3", "7")]["deformation"] == "not_applicable"
    assert by_pair[("3", "7")]["p_g"] == ""


def test_table_sorted_by_pair():
    proc = run_cli("table", "--d", "4..5", "--s", "2..3", "--format", "json")
    recs = json.loads(proc.stdout)
    assert [(r["d"], r["s"]) for r in recs] == [(4, 2), (4, 3), (5, 2), (5, 3)]


def test_table_single_degree2_row(capsys):
    code, out, _ = run_main(capsys, "table", "--d", "2..2", "--s", "1..1",
                            "--format", "json")
    assert code == 0
    recs = json.loads(out)
    assert len(recs) == 1 and recs[0]["deformation"] == "degree2_always"


# --- oracle ---------------------------------------------------------------

def test_oracle_h0_reference(capsys):
    code, out, _ = run_main(capsys, "oracle", "h0", "--k", "16", "--r", "4",
                            "--s", "14", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["measured"] == 13 and rec["expected"] == 13
    assert rec["flag"] == "MATCH"


def test_oracle_alpha_reference(capsys):
    code, out, _ = run_main(capsys, "oracle", "alpha", "--d", "3", "--s", "5",
                            "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["rank"] == 3 and rec["coker"] == 2
    assert rec["flag"] == "MATCH"


# s values of the equality grid; with d 2..8 they hold the alpha-gap pairs
# (5, 12), (6, 17), (7, 23) and (8, 30)
_GRID_S = (1, 5, 12, 17, 23, 30, 40)


@pytest.mark.parametrize("seed", ["0xC0FFEE", "0x5EED5"])
def test_a_table_oracle_row_equals_oracle_alpha_and_classify(capsys, seed):
    def rows(*argv):
        code, out, _ = run_main(capsys, *argv, "--seed", seed,
                                "--format", "json")
        assert code == 0, argv
        return json.loads(out)

    keys = ("rank", "dim_source", "dim_target", "coker")
    for d in range(2, 9):
        table = {row["s"]: row for row in rows(
            "table", "--d", f"{d}..{d}", "--s", "1..40", "--oracle")}
        for s in _GRID_S:
            alpha = rows("oracle", "alpha", "--d", str(d), "--s", str(s))
            want = [alpha[key] for key in keys] + [alpha["flag"]]
            classified = rows("classify", str(d), str(s), "--oracle")
            for row in (table[s], classified):
                got = [row[f"alpha_{key}"] for key in keys]
                assert got + [row["oracle_flag"]] == want, (d, s)


def test_oracle_h1_without_prediction(capsys):
    code, out, _ = run_main(capsys, "oracle", "h1", "--k", "11", "--r", "4",
                            "--s", "5", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["expected"] is None and rec["flag"] is None


# (k, r, s) -> (measured, virtual, defect, expected, flag) of `oracle h1`,
# recorded from the implementation that measured h1 on its own: the curated
# systems, the multiplicity-4 cover family, systems without a prediction and
# simple points on both sides of ambient_dim = 28.
H1_ROWS = {
    (12, 3, 14): (0, 0, 0, 0, "MATCH"),
    (16, 4, 14): (0, 0, 0, 0, "MATCH"),
    (22, 4, 25): (0, 0, 0, 0, "MATCH"),
    (4, 2, 5): (1, 0, 1, None, None),
    (11, 4, 5): (0, 0, 0, None, None),
    (10, 4, 8): (14, 14, 0, None, None),
    (6, 1, 20): (0, 0, 0, 0, "MATCH"),
    (6, 1, 28): (0, 0, 0, 0, "MATCH"),
    (6, 1, 35): (7, 7, 0, 7, "MATCH"),
}


@pytest.mark.parametrize("krs", list(H1_ROWS), ids=str)
def test_oracle_h1_rows(capsys, krs):
    k, r, s = krs
    code, out, _ = run_main(capsys, "oracle", "h1", "--k", str(k), "--r",
                            str(r), "--s", str(s), "--format", "json")
    assert code == 0
    measured, virtual, defect, expected, flag = H1_ROWS[krs]
    assert json.loads(out) == {
        "k": k, "r": r, "s": s, "seed": 12648430, "trials": 5,
        "prime": 2147483647, "measured": measured, "virtual": virtual,
        "defect": defect, "expected": expected, "flag": flag,
    }


def test_oracle_special_system_reports_defect(capsys):
    code, out, _ = run_main(capsys, "oracle", "h0", "--k", "2", "--r", "2",
                            "--s", "2", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["measured"] == 1 and rec["virtual"] == 0 and rec["defect"] == 1
    assert rec["flag"] is None


def test_oracle_mismatch_exits_3(capsys, monkeypatch):
    # force a wrong prediction to exercise the failure path end to end
    monkeypatch.setattr(cli, "h0_prediction", lambda system: 0)
    code, out, _ = run_main(capsys, "oracle", "h0", "--k", "2", "--r", "2",
                            "--s", "2", "--format", "json")
    assert code == 3
    assert json.loads(out)["flag"] == "MISMATCH"


def test_h0_prediction_is_the_virtual_dimension_where_one_is_known():
    # the branch system (2d+6, 4, s) of each cover that exists, and no other
    # s of that degree: the link between `invariants` and the oracle's flag
    for d in range(2, 61):
        for s in range(1, zones(d).cover_no_min + 2):
            got = cli.h0_prediction(FatPointSystem(2 * d + 6, 4, s))
            if s <= zones(d).cover_yes_max:
                assert got == h0_normal_of_cover(BlowupPair(d, s)) + 1, (d, s)
            else:
                assert got is None, (d, s)
    for k in range(40):
        for s in range(1, 900):
            assert cli.h0_prediction(FatPointSystem(k, 1, s)) == max(
                0, (k + 1) * (k + 2) // 2 - s), (k, s)
    assert cli.h0_prediction(FatPointSystem(12, 3, 14)) == 7
    assert cli.h0_prediction(FatPointSystem(16, 4, 14)) == 13
    # no prediction: special or unproved systems, (16, 4, 15) whose cover
    # (5, 15) is not known to exist, and an odd degree beside (22, 4, 25)
    for krs in [(4, 2, 5), (26, 5, 16), (30, 5, 22), (40, 5, 30),
                (16, 4, 15), (23, 4, 25), (12, 3, 13), (8, 4, 1)]:
        assert cli.h0_prediction(FatPointSystem(*krs)) is None, krs


def test_oracle_missing_params_exit_2():
    assert run_cli("oracle", "h0", "--s", "5").returncode == 2
    assert run_cli("oracle", "alpha", "--s", "5").returncode == 2


@pytest.mark.parametrize("argv", [
    ("classify", "1", "1"),
    ("classify", "3", "0"),
    ("table", "--d", "1..3", "--s", "1..2"),
    ("table", "--d", "2..3", "--s", "0..2"),
    ("oracle", "h0", "--k", "4", "--r", "0", "--s", "2"),
    ("oracle", "h0", "--k", "-1", "--r", "1", "--s", "2"),
    ("oracle", "h1", "--k", "4", "--r", "1", "--s", "0"),
    ("oracle", "alpha", "--d", "1", "--s", "2"),
    ("oracle", "alpha", "--d", "3", "--s", "0"),
    ("xi", "--m", "3", "--dmax", "10"),
    ("xi", "--m", "4", "--dmax", "1"),
    ("geography", "--d", "1..3"),
], ids=lambda argv: "_".join(a.removeprefix("--") for a in argv))
def test_out_of_range_input_exits_2_with_empty_stdout(argv):
    proc = run_cli(*argv, "--format", "csv")
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert b"error" in proc.stderr


@pytest.mark.parametrize("argv", [
    ("table", "--d", "1..3", "--s", "1..2"),
    ("table", "--d", "2..3", "--s", "0..2"),
], ids=lambda argv: "_".join(a.removeprefix("--") for a in argv))
def test_out_of_range_table_with_oracle_fails_as_without(argv):
    # a column's pairs are validated before its oracle measurement
    plain = run_cli(*argv, "--format", "csv")
    proc = run_cli(*argv, "--oracle", "--format", "csv")
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr == plain.stderr


@pytest.mark.parametrize("d_range, s_range", [
    ("60..60", "1999..2000"),
    # s 800..1947 pass both caps at d = 53 and would each be measured
    # before s = 1948 failed, were the caps not checked for the whole column
    ("53..53", "800..2000"),
])
def test_oracle_column_over_the_cap_exits_2_before_measuring(d_range, s_range):
    proc = run_cli("table", "--d", d_range, "--s", s_range, "--oracle",
                   timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert b"cap" in proc.stderr


def test_every_oracle_column_is_checked_before_any_is_measured(
        capsys, monkeypatch):
    # d = 47 is over the elimination cap; d = 2..46 took 10 s to measure
    # before the table failed on it
    from cangeo import fatpoints

    def measured(*args):
        raise AssertionError("measured a column")

    monkeypatch.setattr(fatpoints, "_alpha_trial", measured)
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "--d", "2..47", "--s", "1..1", "--oracle",
                  "--trials", "1"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "cap" in out.err


@pytest.mark.parametrize("argv", [
    ("table", "--d", "1..3", "--s", "1..2"),
    ("table", "--d", "2..3", "--s", "0..2"),
    ("table", "--d", "2..3", "--s", "0..2", "--oracle"),
    ("classify", "3", "0"),
], ids=lambda argv: "_".join(a.removeprefix("--") for a in argv))
def test_input_errors_are_decided_from_the_ranges_before_any_row(
        capsys, monkeypatch, argv):
    # the ranges' first values bound every pair: no record is built
    def unplanned(pair):
        raise AssertionError(f"planned {pair}")

    monkeypatch.setattr(cli, "classification_record", unplanned)
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--format", "csv"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "must be at least" in out.err


class _Flushes(io.StringIO):
    """A stdout that keeps what it held at each flush."""

    def __init__(self):
        super().__init__()
        self.flushed = []

    def flush(self):
        self.flushed.append(self.getvalue())


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_failure_while_a_later_d_is_planned_comes_after_the_earlier_rows(
        monkeypatch, fmt):
    # input errors are decided before the first byte, but an internal one
    # at d = 3 is raised once the rows of d = 2 are written and flushed
    real = cli.classification_record

    def fail_at_3(pair):
        if pair.d == 3:
            raise ValueError("d = 3 rejected")
        return real(pair)

    monkeypatch.setattr(cli, "classification_record", fail_at_3)
    out = _Flushes()
    monkeypatch.setattr(sys, "stdout", out)
    with pytest.raises(ValueError, match="d = 3 rejected"):
        cli.main(["table", "--d", "2..3", "--s", "1..3", "--format", fmt])
    monkeypatch.undo()
    whole = run_cli("table", "--d", "2..2", "--s", "1..3", "--format", fmt)
    head = whole.stdout.decode()
    if fmt == "json":   # without the array's close, which d = 3 would bring
        head = head[:-len("\n]\n")]
    assert out.flushed[-1] == out.getvalue() == head


def test_oracle_flag_mismatch_exits_3(capsys, monkeypatch):
    # (3, 5) measures not surjective; a formula claiming yes must flag it
    monkeypatch.setattr(cli, "alpha_surjective", lambda pair: cli.TriState.YES)
    code, out, _ = run_main(capsys, "table", "--d", "3..3", "--s", "5..5",
                            "--oracle", "--format", "json")
    assert code == 3
    [row] = json.loads(out)
    assert row["oracle_flag"] == "MISMATCH"


def _close_after_first_line(argv, head, buffered=False):
    """Run the CLI, close its stdout after the first line; (exit code, stderr).

    The child inherits this environment's stdout buffering unless
    `buffered`."""
    env = dict(os.environ)
    env.pop("CANGEO_SEED", None)
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        RUN + list(argv),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.readline().startswith(head)
        proc.stdout.close()
        _, err = proc.communicate(timeout=30)
    finally:
        proc.kill()
        proc.wait()
    return proc.returncode, err


def test_closed_stdout_exits_1_without_traceback():
    # ~1.3 MB of csv, far past a pipe buffer, so a write meets the closed end
    code, err = _close_after_first_line(
        ["table", "--d", "2..40", "--s", "1..400", "--format", "csv"], b"d,s,")
    assert code == 1
    assert b"Traceback" not in err


def test_closed_buffered_stdout_exits_1_without_traceback():
    # the rest of a full buffer is flushed to devnull before os._exit
    code, err = _close_after_first_line(
        ["table", "--d", "2..40", "--s", "1..400", "--format", "csv"], b"d,s,",
        buffered=True)
    assert code == 1
    assert b"Traceback" not in err


def test_closed_stdout_mid_json_stream_exits_1_without_traceback():
    # ~3 MB of json written chunk by chunk
    code, err = _close_after_first_line(
        ["geography", "--d", "2..60", "--format", "json"], b"[")
    assert code == 1
    assert b"Traceback" not in err


# --- the process entry point ----------------------------------------------

# Invocations run both through `python -m cangeo` (cli.run, which ends the
# process with os._exit) and through cli.main in this process: csv, json and
# table rows, nested json rows, and xi's notes on stderr.
_ENTRY_ARGV = [
    *(["table", "--d", "2..6", "--s", "1..30", "--oracle", "--format", fmt]
      for fmt in ("csv", "json", "table")),
    *(["xi", "--m", m, "--dmax", "60", "--format", fmt]
      for m in ("10", "19") for fmt in ("csv", "json", "table")),
]


@pytest.mark.parametrize("argv", _ENTRY_ARGV, ids=" ".join)
def test_module_entry_writes_what_main_writes(capsys, monkeypatch, argv):
    monkeypatch.delenv("CANGEO_SEED", raising=False)
    proc = run_cli(*argv)
    code, out, err = run_main(capsys, *argv)
    assert proc.returncode == code == 0
    assert proc.stdout == out.encode()
    assert proc.stderr == err.encode()
    if argv[0] == "xi":
        assert "note:" in err


def run_code(code, *argv, env=None):
    """`python -c code argv...`, in the environment of run_cli by default."""
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True,
                          env=_child_env() if env is None else env)


def _blas_env(**values):
    """The environment of run_cli with no OPENBLAS_* variable but `values`."""
    env = {key: value for key, value in _child_env().items()
           if not key.startswith("OPENBLAS_")}
    env.update(values)
    return env


_PROBE_RUN = """
import os, sys
from cangeo import cli
def probe(argv=None):
    print(os.environ.get("OPENBLAS_THREAD_TIMEOUT"),
          os.environ.get("OPENBLAS_NUM_THREADS"), "numpy" in sys.modules)
    return 0
cli.main = probe
cli.run()
"""


def test_run_lets_the_blas_worker_sleep_before_numpy_loads():
    proc = run_code(_PROBE_RUN, env=_blas_env())
    assert proc.returncode == 0, proc.stderr
    timeout, threads, numpy_loaded = proc.stdout.decode().split()
    # shorter than OpenBLAS's own 2^28 spin, within its clamp of 4..30
    assert 4 <= int(timeout) < 28
    assert (threads, numpy_loaded) == ("None", "False")


def test_run_keeps_the_callers_thread_timeout():
    proc = run_code(_PROBE_RUN, env=_blas_env(OPENBLAS_THREAD_TIMEOUT="8"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().split() == ["8", "None", "False"]


def test_imports_and_main_leave_the_environment_alone():
    code = """
import os
before = dict(os.environ)
import cangeo
assert os.environ == before, "import cangeo"
import cangeo.fatpoints
assert os.environ == before, "import cangeo.fatpoints"
from cangeo import cli
assert cli.main(["oracle", "h0", "--k", "16", "--r", "4", "--s", "14",
                 "--format", "csv"]) == 0
assert os.environ == before, "cli.main"
"""
    proc = run_code(code, env=_blas_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(b"k,r,s,")


def test_readings_do_not_depend_on_blas_threading():
    # the 450-row block products of this rung are large enough for OpenBLAS
    # to split them over threads; the float64 limb sums are exact in any
    # summation order, so one thread, the old 2^28 spin and the entry
    # point's own default write the same bytes
    argv = ["oracle", "h0", "--k", "40", "--r", "5", "--s", "30",
            "--format", "csv"]
    outputs = set()
    for values in ({"OPENBLAS_NUM_THREADS": "1"},
                   {"OPENBLAS_THREAD_TIMEOUT": "28"}, {}):
        proc = subprocess.run(RUN + argv, capture_output=True,
                              env=_blas_env(**values))
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1


def test_module_entry_exit_codes():
    assert run_cli("classify", "4", "9").returncode == 0
    bad = run_cli("classify", "1", "1")
    assert bad.returncode == 2
    assert bad.stdout == b""
    assert b"usage:" in bad.stderr and b"Traceback" not in bad.stderr


def test_run_exits_3_on_a_mismatch():
    code = """
from cangeo import cli
cli.h0_prediction = lambda system: 0
cli.run()
"""
    proc = run_code(code, "oracle", "h0", "--k", "2", "--r", "2", "--s", "2",
                    "--format", "json")
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["flag"] == "MISMATCH"


def test_run_leaves_an_uncaught_exception_to_the_interpreter():
    code = """
from cangeo import cli
def fail(args, config):
    raise RuntimeError("unplanned")
cli.COMMANDS["classify"] = fail
cli.run()
"""
    proc = run_code(code, "classify", "4", "9")
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert b"Traceback" in proc.stderr
    assert b"RuntimeError: unplanned" in proc.stderr


# --- xi and geography -----------------------------------------------------

def test_xi_m4_points():
    proc = run_cli("xi", "--m", "4", "--dmax", "10", "--format", "json")
    assert proc.returncode == 0
    recs = json.loads(proc.stdout)
    assert [(r["x_prime"], r["y"]) for r in recs] == [
        (9, 20), (15, 38), (23, 62), (33, 92)]
    assert recs[0]["scroll_witness"] == {"r": 6, "l": 0, "a": 1, "b": 1, "c": 1}
    assert all(r["certified"] for r in recs)


def test_xi_empty_line_emits_empty_array():
    proc = run_cli("xi", "--m", "17", "--dmax", "100", "--format", "json")
    assert proc.returncode == 0
    assert proc.stdout == b"[]\n"
    proc = run_cli("xi", "--m", "17", "--dmax", "100", "--format", "csv")
    assert proc.returncode == 0
    assert proc.stdout == ",".join(cli.XI_COLUMNS).encode() + b"\r\n"


def test_xi_unwitnessed_goes_to_stderr_only():
    proc = run_cli("xi", "--m", "7", "--dmax", "10", "--format", "json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == []
    err = proc.stderr.decode()
    assert "d=6" in err and "no admissible scroll" in err


def test_xi_uncertified_window_labeled():
    proc = run_cli("xi", "--m", "20", "--dmax", "60", "--format", "json")
    assert proc.returncode == 0
    assert "certified" in proc.stderr.decode()
    for rec in json.loads(proc.stdout):
        assert rec["certified"] is False


def test_geography_intervals_and_points():
    proc = run_cli("geography", "--d", "2..6", "--format", "json")
    recs = json.loads(proc.stdout)
    lines = {r["d"]: (r["x_min"], r["x_max"]) for r in recs if r["kind"] == "line"}
    assert lines == {2: (6, 6), 3: (5, 10), 4: (6, 15), 5: (8, 21), 6: (13, 28)}
    points = [r for r in recs if r["kind"] == "point"]
    assert {"d": 3, "s": 6, "chi": 5, "c1sq": 6} \
        == {k: next(p[k] for p in points if p["d"] == 3 and p["s"] == 6)
            for k in ("d", "s", "chi", "c1sq")}
    tags = {p["deformation"] for p in points}
    assert "degree1" in tags and "degree2_always" in tags


# --- run configuration ----------------------------------------------------

def test_seed_priority_flag_beats_env():
    env = {"CANGEO_SEED": "42"}
    with_env = run_cli("oracle", "h0", "--k", "6", "--r", "1", "--s", "3",
                       "--format", "json", env_extra=env)
    assert json.loads(with_env.stdout)["seed"] == 42
    with_flag = run_cli("oracle", "h0", "--k", "6", "--r", "1", "--s", "3",
                        "--seed", "0x10", "--format", "json", env_extra=env)
    assert json.loads(with_flag.stdout)["seed"] == 16


def test_global_flags_accepted_before_subcommand(capsys):
    code, out, _ = run_main(capsys, "--format", "json", "--seed", "5",
                            "oracle", "h0", "--k", "6", "--r", "1", "--s", "3")
    assert code == 0
    assert json.loads(out)["seed"] == 5


def test_bad_env_seed_exits_2():
    proc = run_cli("classify", "3", "5", env_extra={"CANGEO_SEED": "pony"})
    assert proc.returncode == 2


def test_prime_validation():
    # not prime
    assert run_cli("oracle", "h0", "--k", "4", "--r", "1", "--s", "2",
                   "--prime", "2147483646").returncode == 2
    # prime but at or below the 10^6 floor
    assert run_cli("oracle", "h0", "--k", "4", "--r", "1", "--s", "2",
                   "--prime", "999983").returncode == 2
    ok = run_cli("oracle", "h0", "--k", "4", "--r", "1", "--s", "2",
                 "--prime", "1000003")
    assert ok.returncode == 0


def test_prime_above_the_exact_int64_range_exits_2():
    # (p-1)**2 overflows int64 above 3037000499; this system used to read
    # measured=0 there, understating h0
    argv = ("oracle", "h0", "--k", "4", "--r", "2", "--s", "5",
            "--format", "csv")
    assert run_cli(*argv, "--prime", "4294967311").returncode == 2
    for prime in ("2147483647", "3037000493"):   # default, largest accepted
        proc = run_cli(*argv, "--prime", prime)
        assert proc.returncode == 0
        row = next(csv.DictReader(io.StringIO(proc.stdout.decode())))
        assert row["measured"] == "1"   # the double conic


def test_oversized_oracle_system_exits_2():
    # 55000 x 20301 int64 entries (~9 GB) would be allocated without the cap
    proc = run_cli("oracle", "h0", "--k", "200", "--r", "10", "--s", "1000",
                   timeout=30)
    assert proc.returncode == 2
    assert b"cap" in proc.stderr
    for argv in (("oracle", "alpha", "--d", "200", "--s", "1"),
                 ("table", "--d", "70..70", "--s", "1..1", "--oracle")):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 2


def test_elimination_work_over_the_cap_exits_2():
    # 4000 x 4095 passes the entry cap; eliminating it would take minutes
    proc = run_cli("oracle", "h0", "--k", "89", "--r", "1", "--s", "4000",
                   timeout=30)
    assert proc.returncode == 2
    assert b"cap" in proc.stderr


def test_trials_validation():
    assert run_cli("oracle", "h0", "--k", "4", "--r", "1", "--s", "2",
                   "--trials", "0").returncode == 2


@pytest.mark.parametrize("argv", [
    ("oracle", "h0", "--k", "5", "--r", "2", "--s", "3"),
    ("oracle", "h1", "--k", "5", "--r", "2", "--s", "3"),
    ("oracle", "alpha", "--d", "3", "--s", "2"),
    ("table", "--d", "2..3", "--s", "1..3", "--oracle"),
], ids=lambda argv: "_".join(a.removeprefix("--") for a in argv))
def test_trials_above_the_cap_exit_2_with_empty_stdout(capsys, argv):
    code, out, _ = run_main(capsys, *argv, "--trials", str(MAX_TRIALS),
                            "--format", "csv")
    assert code == 0 and out
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--trials", str(MAX_TRIALS + 1), "--format", "csv"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"trials must be at most {MAX_TRIALS}" in out.err


def test_a_huge_trial_count_exits_2_at_once():
    # each of these ran past 20 s before the cap, growing with the count
    for argv in (("oracle", "h0", "--k", "5", "--r", "2", "--s", "3"),
                 ("classify", "4", "9", "--oracle")):
        proc = run_cli(*argv, "--trials", "100000000", timeout=30)
        assert proc.returncode == 2
        assert proc.stdout == b""


def test_output_is_deterministic():
    a = run_cli("table", "--d", "3..5", "--s", "1..14", "--format", "csv")
    b = run_cli("table", "--d", "3..5", "--s", "1..14", "--format", "csv")
    assert a.stdout == b.stdout
    a = run_cli("oracle", "h0", "--k", "12", "--r", "3", "--s", "14",
                "--format", "json")
    b = run_cli("oracle", "h0", "--k", "12", "--r", "3", "--s", "14",
                "--format", "json")
    assert a.stdout == b.stdout


def test_json_round_trips(capsys):
    for argv in (["classify", "4", "8"], ["xi", "--m", "4", "--dmax", "10"],
                 ["geography", "--d", "2..4"]):
        code, out, _ = run_main(capsys, *argv, "--format", "json")
        assert code == 0
        assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out


@pytest.mark.parametrize("argv", [
    ("table", "--d", "2..12", "--s", "1..80", "--oracle"),
    ("geography", "--d", "2..30"),
    ("xi", "--m", "5", "--dmax", "300"),
], ids=lambda argv: argv[0])
def test_csv_cells_are_the_plain_json_values(capsys, argv):
    code, text, _ = run_main(capsys, *argv, "--format", "json")
    assert code == 0
    records = json.loads(text)
    code, text, _ = run_main(capsys, *argv, "--format", "csv")
    assert code == 0
    header, *lines = csv.reader(io.StringIO(text, newline=""))
    assert len(lines) == len(records) > 10
    for line, record in zip(lines, records):
        flat = {}
        for key, value in record.items():
            if isinstance(value, dict):
                flat.update((f"{key}_{sub}", v) for sub, v in value.items())
            else:
                flat[key] = value
        assert set(flat) == set(header)
        assert line == [cli._plain(flat[c]) for c in header]


def test_table_format_aligns_columns(capsys):
    code, out, _ = run_main(capsys, "table", "--d", "3..3", "--s", "5..6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("d")
    assert len(lines) == 3


# --- streamed output ------------------------------------------------------

def _json_rows(n):
    return [{"d": i, "slope": str(Fraction(i, 7)), "mu": None,
             "certified": i % 2 == 0, "rule": "s <= (d^2-d+2)/2, \"q\"",
             "scroll_witness": {"r": i, "l": None,
                                "a": str(Fraction(1, i + 1))}}
            for i in range(n)]


@pytest.mark.parametrize("n", [0, 1, cli.CHUNK_ROWS - 1, cli.CHUNK_ROWS,
                               cli.CHUNK_ROWS + 1, 2 * cli.CHUNK_ROWS + 5])
def test_chunked_json_equals_one_dump_of_the_list(n):
    # each row a run of its own, its nested dict a constant group
    rows = _json_rows(n)
    out = io.StringIO()
    cli._write_json_array(out, cli.Rows.of(rows))
    assert out.getvalue() == json.dumps(rows, indent=2, sort_keys=True)


def _flat_json_rows(n):
    return [{"d": i, "slope": str(Fraction(i, 7)), "mu": None,
             "certified": i % 2 == 0,
             "rule": "s <= (d^2-d+2)/2, \"q\" \u00e9\t", "chi": -i}
            for i in range(n)]


@pytest.mark.parametrize("n", [1, cli.CHUNK_ROWS + 1])
def test_flat_json_rows_equal_one_dump_of_the_list(n):
    # flat rows take a line template of the C encoder's text; mixed with
    # rows whose nested dict is a constant group
    for rows in (_flat_json_rows(n),
                 [row for pair in zip(_flat_json_rows(n), _json_rows(n))
                  for row in pair]):
        out = io.StringIO()
        cli._write_json_array(out, cli.Rows.of(rows))
        assert out.getvalue() == json.dumps(rows, indent=2, sort_keys=True)


@pytest.mark.parametrize("fmt", ["csv", "json", "table"])
def test_each_part_is_called_once_in_every_format(capsys, fmt):
    # emit makes one pass, a part at a time, and len reads that pass
    columns = ["d", "slope", "certified", "scroll_witness_a"]
    runs, calls = list(cli.Rows.of(_json_rows(6))), []

    def part(key):
        calls.append(key)
        return runs[2 * key:2 * key + 2]

    rows = cli.Rows(part, range(3))
    cli.emit(rows, columns, fmt)
    out = capsys.readouterr().out
    assert len(rows) == 6
    assert calls == [0, 1, 2]
    cli.emit(cli.Rows.of(_json_rows(6)), columns, fmt)
    assert out == capsys.readouterr().out


def test_the_table_format_renders_each_derived_cell_once(capsys,
                                                         monkeypatch):
    # its widths and its lines each rendered every slope cell: 11,018
    # _ratio_text calls on table --d 2..40 --s 1..400 against 5,509 in csv
    real, calls = cli._ratio_text, []

    def ratio_text(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "_ratio_text", ratio_text)
    counts = {}
    for fmt in ("csv", "json", "table"):
        calls.clear()
        run_main(capsys, "table", "--d", "2..12", "--s", "1..80",
                 "--format", fmt)
        counts[fmt] = len(calls)
    assert counts["table"] == counts["csv"] == counts["json"]


# --- csv and table-format line templates ----------------------------------

# Constant cells that csv must quote or a `%` template must escape, and the
# values that are not written by str()
_AWKWARD = {"comma": "a,b", "quote": 'say "hi"', "cr": "x\ry", "lf": "x\ny",
            "pct": "100% %d %%", "quotes": '""', "empty": "", "none": None,
            "yes": True, "no": False}
_TEMPLATE_COLUMNS = ["kind", "i", "j", "m", "note", "ratio", *_AWKWARD,
                     "w_r", "absent", "tail"]


def _template_runs():
    """Runs whose stepped columns cross digit and sign boundaries, with int
    list columns, a list column holding None, a derived Fraction column and
    a last column that is empty on some rows, then rows of their own.  The
    widest j is the last of a stepped column and the widest m the middle of
    a list, so that neither is seen at a column's first row."""
    ratio = (Fraction, ("i", "den"))
    n = 25
    return [
        cli._Run(n, {"kind": "a", "den": 7, **_AWKWARD},
                 {"i": range(-12, 13), "j": range(10, 10 - 3 * n, -3),
                  "note": [None if k % 3 else f"n{k},%" for k in range(n)],
                  "ratio": ratio,
                  "tail": ["" if k % 2 else "end" for k in range(n)]}),
        cli._Run(10, {"kind": "b%", "den": -3, "tail": "", **_AWKWARD},
                 {"i": range(95, 105), "j": range(10, -20, -3),
                  "m": [3, -1234, 7, 0, 12, 5, 6, 8, 9, 1],
                  "note": list(range(-5, 5)), "ratio": ratio}),
        cli._Run(7, {"kind": "c", "i": 2, "den": 5, "tail": "t"},
                 {"j": range(10, -11, -3), "ratio": ratio}),
        cli._Run(1, {"kind": "one", "i": -1, "j": 3, "note": 'x"%s',
                     "ratio": Fraction(-1, 3), "w": {"r": 6, "l": None},
                     **_AWKWARD, "tail": "  "}),
        cli._Run(1, {"kind": "two", "i": 3, "den": 4, "tail": "last"},
                 {"j": [7], "note": [None], "ratio": ratio}),
    ]


def _expanded(run) -> list[dict]:
    """The run's rows, computed here from its fields; nested dicts
    flattened."""
    rows = []
    for k in range(run.n):
        row = {}
        for key, value in run.const.items():
            if isinstance(value, dict):
                row.update((f"{key}_{sub}", v) for sub, v in value.items())
            else:
                row[key] = value
        derived = {}
        for key, col in run.vary.items():
            if isinstance(col, tuple):
                derived[key] = col
            else:
                row[key] = col[k]
        for key, (fn, sources) in derived.items():
            row[key] = fn(*(row.get(source) for source in sources))
        rows.append(row)
    return rows


def _text(value) -> str:
    if value is None:
        return ""
    if value is True or value is False:
        return "true" if value else "false"
    return str(value)


def test_csv_and_table_templates_write_what_the_reference_writes(capsys):
    runs = _template_runs()
    cells = [[_text(row.get(c)) for c in _TEMPLATE_COLUMNS]
             for run in runs for row in _expanded(run)]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerows([_TEMPLATE_COLUMNS,
                                                        *cells])
    widths = [max(len(line[i]) for line in [_TEMPLATE_COLUMNS, *cells])
              for i in range(len(_TEMPLATE_COLUMNS))]
    table = "".join("  ".join(v.ljust(w) for v, w in zip(line, widths))
                    .rstrip() + "\n" for line in [_TEMPLATE_COLUMNS, *cells])
    for fmt, want in (("csv", buf.getvalue()), ("table", table)):
        cli.emit(cli.Rows(lambda _: runs), _TEMPLATE_COLUMNS, fmt)
        assert capsys.readouterr().out == want, fmt


def _grouped_run():
    """A run across a chunk boundary with a nested group of int columns,
    whose entries are negative, cross digit boundaries and are widest
    inside the run, beside a constant group holding text to escape."""
    n = cli.CHUNK_ROWS + 30
    return cli._Run(n, {"m": 5, "certified": True,
                        "w": {"y": 'a,"%d"', "z": None}}, {
        "d": range(-3, n - 3),
        "scroll_witness": {
            "r": [k * k - 50 for k in range(n)],
            "l": list(range(95, 95 - 7 * n, -7)),
            "a": [1] * n,
            "b": [(-1) ** k * 10 ** (k % 4) for k in range(n)],
            "c": range(0, 3 * n, 3)}})


_GROUPED_COLUMNS = ["m", "d", "certified", "w_y", "w_z",
                    *(f"scroll_witness_{key}" for key in "rlabc")]


def test_a_nested_group_of_int_columns_writes_its_rows(capsys):
    run = _grouped_run()
    witness = run.vary["scroll_witness"]
    rows = [{**run.const, "d": run.vary["d"][k],
             "scroll_witness": {key: col[k] for key, col in witness.items()}}
            for k in range(run.n)]
    out = io.StringIO()
    cli._write_json_array(out, cli.Rows(lambda _: [run]))
    assert out.getvalue() == json.dumps(rows, indent=2, sort_keys=True)
    flat = [[cli._plain(record.get(c)) for c in _GROUPED_COLUMNS]
            for record in map(cli._flatten, rows)]
    cli.emit(cli.Rows(lambda _: [run]), _GROUPED_COLUMNS, "csv")
    header, *lines = csv.reader(io.StringIO(capsys.readouterr().out,
                                            newline=""))
    assert header == _GROUPED_COLUMNS and lines == flat
    cli.emit(cli.Rows(lambda _: [run]), _GROUPED_COLUMNS, "table")
    head, *table = capsys.readouterr().out.splitlines()
    starts = [0, *(head.index("  " + c) + 2 for c in _GROUPED_COLUMNS[1:])]
    assert [[line[a:b].strip() for a, b in zip(starts, [*starts[1:], None])]
            for line in table] == flat


def test_a_single_json_object_equals_one_dump_of_its_row(capsys):
    # classify and oracle write one object, from the same template as a row
    row = {"rule": 'a %d %s %% 100%, "q"\t\u00e9', "mu": None, "ok": True,
           "slope": "-1/3", "w": {"r": 6, "l": None}, "none": {}}
    cli.emit(cli.Rows.of([row]), list(row), "json", single=True)
    assert capsys.readouterr().out == json.dumps(
        row, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("vary", [
    {"flag": [True, False, True]},
    {"flag": [1, True, 3]},
    {"ratio": (lambda i: None if i == 2 else Fraction(i, 3), ("i",))},
], ids=["bools", "an-int-and-a-bool", "a-derived-none"])
@pytest.mark.parametrize("fmt", ["csv", "table", "json"])
def test_a_template_slot_refuses_a_bool_or_a_derived_none(capsys, vary, fmt):
    # `%d` would write a bool as 1 and `%s` a None as "None"
    run = cli._Run(3, {"kind": "x"}, {"i": range(3), **vary})
    with pytest.raises(AssertionError):
        cli.emit(cli.Rows(lambda _: [run]), ["kind", "i", *vary], fmt)
    capsys.readouterr()


# sha256 of the stdout of invocations that no stored benchmark hash
# covers, recorded from the csv.writer and per-cell table renderers that
# the line templates replaced; the xi json and table-format pins from the
# per-row renderers that xi's one run of columns replaced
_GOLDEN = {
    "table --d 2..12 --s 1..80":
        "e87c350b19ac4a65abdcf0d24dd3393e05036ac1cd692ee73fc82bacc01c0505",
    "geography --d 2..30":
        "1e2433d274be76093b0ccd087783c2cfa41719eaef214a4ad390ecea307ad9b5",
    "geography --d 2..30 --format csv":
        "ab9306be0e1839d1b67db90bfdb8dbf39d366543fee372f59992d9dc92eb764f",
    "table --d 2..6 --s 1..30 --oracle":
        "679ada4761965f95bf94e4a11f50b16fe05ff44b0402c337cd0f49460ebdb8dd",
    "xi --m 5 --dmax 300 --format csv":
        "3aefcbbf9421f57a44fd90902b81426fa0241a08ccc56554c22a7d5a72665fad",
    "xi --m 5 --dmax 300 --format json":
        "6ce71359f8c112d4e3b05bacf24610120319dc7bd8cc75a8d8d2660be2b9660d",
    "xi --m 5 --dmax 300":
        "746696f3580e484e52d8bba32e5e2ada24d28761168e16b72484f11b13bf333e",
    # outside the certified window: certified=false, notes on stderr
    "xi --m 20 --dmax 60 --format json":
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
}


@pytest.mark.parametrize("argv", _GOLDEN)
def test_output_matches_its_golden_hash(argv):
    proc = run_cli(*argv.split())
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == _GOLDEN[argv]


# Spawns the command and prints its exit code and peak RSS in KiB.  Linux
# counts the RSS a process had before exec in its peak, and a spawned child
# starts in a copy of its parent; so the command is spawned from this small
# interpreter, not from the test process.
_PEAK_RSS = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_geography_streams_in_flat_memory(fmt):
    # ~25 MB of csv; holding every row took 380 MB (csv) and 1.1 GB (json)
    env = dict(os.environ)
    env.pop("CANGEO_SEED", None)
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, *RUN,
         "geography", "--d", "2..200", "--format", fmt],
        capture_output=True, env=env, check=True)
    code, peak_kib = map(int, proc.stdout.split())
    assert code == 0
    assert peak_kib < 60 * 1024


def test_a_wide_table_plans_in_flat_memory():
    # planning every d before the first byte took 28 MB at --d 2..8000,
    # 46 MB at 2..20000 and 170 MB at 2..100000
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, *RUN, "table", "--d", "2..8000",
         "--s", "1..3", "--format", "csv"],
        capture_output=True, env=_child_env(), check=True)
    code, peak_kib = map(int, proc.stdout.split())
    assert code == 0
    assert peak_kib < 20 * 1024


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_one_long_run_of_s_streams_in_flat_memory(fmt):
    # s 1..162000 is one run at d = 900, with a slope cell in every row;
    # holding the run's slope texts took 26 MB more (json) and 11 MB more
    # (table) than a run of 100 rows
    def peak_kib(s_range):
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS, *RUN, "table", "--d", "900",
             "--s", s_range, "--format", fmt],
            capture_output=True, env=_child_env(), check=True)
        code, peak = map(int, proc.stdout.split())
        assert code == 0
        return peak

    assert peak_kib("1..162000") < peak_kib("1..100") + 5 * 1024


def test_an_oracle_measurement_holds_its_matrix_one_copy_and_panels():
    # (40, 5, 30) is a 450x861 matrix, 3.0 MiB, eliminated by row blocks;
    # (4, 2, 5) is a 10x15 one, eliminated by the pivot loop.  The larger
    # peaked 9.3 MiB above the smaller: the matrix, one working copy, the
    # BLAS threads' first use and the products' limbs and panels.  A build
    # at twice the matrix, fresh panel temporaries and copies of the
    # gathered pivot columns took it to 13.2 MiB above
    def peak_kib(k, r, s):
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS, *RUN, "oracle", "h0", "--k",
             str(k), "--r", str(r), "--s", str(s), "--trials", "1"],
            capture_output=True, env=_child_env(), check=True)
        code, peak = map(int, proc.stdout.split())
        assert code == 0
        return peak

    matrix_kib = 450 * 861 * 8 // 1024
    assert peak_kib(40, 5, 30) < peak_kib(4, 2, 5) + 2 * matrix_kib + 5 * 1024


# --- oracle tables, column by column --------------------------------------

ORACLE_SWEEP = ["table", "--d", "2..4", "--s", "1..12", "--oracle"]

# Runs the command line with alpha_rank wrapped: each call first notes on
# stderr its d and the bytes the stdout file holds, which are the bytes
# flushed so far.
_MEASURED_AT = """
import os, sys
from cangeo import cli, fatpoints
measure = fatpoints.alpha_rank
def alpha_rank(d, *args, **kwargs):
    sys.stderr.write(f"{d} {os.fstat(1).st_size}\\n")
    return measure(d, *args, **kwargs)
fatpoints.alpha_rank = alpha_rank
cli.run()
"""


def _head(out: bytes, fmt: str, last_d: int) -> bytes:
    """What a stream of `out` holds once the columns up to last_d are
    written: nothing before the first, then the csv header or the json
    array's opening, and the rows, without the separator that the next
    row brings."""
    if fmt == "csv":
        header, *lines = out.splitlines(keepends=True)
        rows = [line for line in lines if int(line.split(b",")[0]) <= last_d]
        return b"".join([header, *rows]) if rows else b""
    rows = [row for row in json.loads(out) if row["d"] <= last_d]
    return json.dumps(rows, indent=2, sort_keys=True)[:-2].encode() if rows else b""


@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_each_oracle_column_is_flushed_before_the_next_is_measured(
        tmp_path, fmt, unbuffered):
    env = _child_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    path = tmp_path / "stdout"
    with open(path, "wb") as stdout:
        proc = subprocess.run(
            [sys.executable, "-c", _MEASURED_AT, *ORACLE_SWEEP, "--format", fmt],
            stdout=stdout, stderr=subprocess.PIPE, env=env)
    assert proc.returncode == 0
    out = path.read_bytes()
    assert out == run_cli(*ORACLE_SWEEP, "--format", fmt).stdout
    # the first column's rows fit in one buffer: only a flush puts them in
    # the file before the second column is measured
    assert 0 < len(_head(out, fmt, 2)) < io.DEFAULT_BUFFER_SIZE
    seen = [tuple(map(int, line.split()))
            for line in proc.stderr.decode().splitlines()]
    assert [d for d, _ in seen] == [2, 3, 4]
    for d, size in seen:
        head = _head(out, fmt, d - 1)
        assert size == len(head) and out.startswith(head), (d, size)


# Runs the command line with classification_record wrapped: its first call
# at each d first notes on stderr the d and the bytes flushed so far.
_PLANNED_AT = """
import os, sys
from cangeo import cli
record, seen = cli.classification_record, set()
def classification_record(pair):
    if pair.d not in seen:
        seen.add(pair.d)
        sys.stderr.write(f"{pair.d} {os.fstat(1).st_size}\\n")
    return record(pair)
cli.classification_record = classification_record
cli.run()
"""

CLOSED_SWEEP = ["table", "--d", "2..4", "--s", "1..12"]


@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_each_closed_form_d_is_flushed_before_the_next_is_planned(
        tmp_path, fmt, unbuffered):
    env = _child_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    path = tmp_path / "stdout"
    with open(path, "wb") as stdout:
        proc = subprocess.run(
            [sys.executable, "-c", _PLANNED_AT, *CLOSED_SWEEP, "--format", fmt],
            stdout=stdout, stderr=subprocess.PIPE, env=env)
    assert proc.returncode == 0
    out = path.read_bytes()
    assert out == run_cli(*CLOSED_SWEEP, "--format", fmt).stdout
    # the first d's rows fit in one buffer: only a flush puts them in the
    # file before the second d is planned
    assert 0 < len(_head(out, fmt, 2)) < io.DEFAULT_BUFFER_SIZE
    seen = [tuple(map(int, line.split()))
            for line in proc.stderr.decode().splitlines()]
    assert [d for d, _ in seen] == [2, 3, 4]
    for d, size in seen:
        head = _head(out, fmt, d - 1)
        assert size == len(head) and out.startswith(head), (d, size)


@pytest.mark.parametrize("single", [False, True])
@pytest.mark.parametrize("fmt", ["csv", "json", "table"])
def test_len_after_emit_makes_no_pass(capsys, monkeypatch, fmt, single):
    # bench/tracer.py reads len(rows) after emit for its row counter
    from cangeo import fatpoints

    config = cli.RunConfig(seed=cli.DEFAULT_SEED, trials=2,
                           prime=cli.DEFAULT_PRIME)
    d_values, s_values = ([4], range(9, 10)) if single else (range(2, 5),
                                                              range(1, 13))
    rows, columns = cli._classification_rows(d_values, s_values, config, True)
    cli.emit(rows, columns, fmt, single=single)
    capsys.readouterr()

    def work(*args, **kwargs):
        raise AssertionError("a second pass")

    monkeypatch.setattr(cli, "classification_record", work)
    monkeypatch.setattr(fatpoints, "alpha_rank", work)
    assert len(rows) == len(d_values) * len(s_values)


def test_len_before_a_pass_raises_and_makes_none(monkeypatch):
    from cangeo import fatpoints

    def work(*args, **kwargs):
        raise AssertionError("a pass")

    monkeypatch.setattr(cli, "classification_record", work)
    monkeypatch.setattr(fatpoints, "alpha_rank", work)
    config = cli.RunConfig(seed=cli.DEFAULT_SEED, trials=2,
                           prime=cli.DEFAULT_PRIME)
    rows, _ = cli._classification_rows(range(2, 5), range(1, 13), config, True)
    with pytest.raises(TypeError):
        len(rows)


def test_list_of_rows_makes_one_pass():
    calls = []

    def part(key):
        calls.append(key)
        return [cli._Run(key + 1, {"k": key})]

    rows = cli.Rows(part, range(3))
    assert [run.n for run in list(rows)] == [1, 2, 3]
    assert calls == [0, 1, 2]
    assert len(rows) == 6


@pytest.mark.parametrize("run, mismatch", [
    (cli._Run(1, {"flag": "MISMATCH"}), True),
    (cli._Run(3, {}, {"oracle_flag": ["MATCH", "MISMATCH", None]}), True),
    (cli._Run(2, {"flag": "MATCH"}, {"oracle_flag": ["MATCH", None]}), False),
    (cli._Run(2, {"rule": "MISMATCH"}, {"s": range(1, 3)}), False),
])
def test_a_pass_notes_mismatch_in_flag_cells(run, mismatch):
    rows = cli.Rows(lambda _: [run])
    assert not rows.mismatch
    list(rows)
    assert rows.mismatch is mismatch


@pytest.mark.parametrize("fmt", ["csv", "json", "table"])
def test_each_oracle_column_is_measured_once(capsys, monkeypatch, fmt):
    # every column is checked before the first is measured
    from cangeo import fatpoints

    check, measure = fatpoints._alpha_floors, fatpoints.alpha_rank
    calls = []

    def floors(d, *args):
        calls.append(("check", d))
        return check(d, *args)

    def alpha_rank(d, *args, **kwargs):
        calls.append(("measure", d))
        return measure(d, *args, **kwargs)

    monkeypatch.setattr(fatpoints, "_alpha_floors", floors)
    monkeypatch.setattr(fatpoints, "alpha_rank", alpha_rank)
    code, out, _ = run_main(capsys, *ORACLE_SWEEP, "--format", fmt)
    assert code == 0
    assert [d for kind, d in calls if kind == "measure"] == [2, 3, 4]
    assert calls[:4] == [("check", 2), ("check", 3), ("check", 4),
                         ("measure", 2)]
    assert out == run_cli(*ORACLE_SWEEP, "--format", fmt).stdout.decode()


class _ClosedStdout(io.TextIOBase):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd: int):
        self._fd = fd

    def fileno(self) -> int:
        return self._fd

    def write(self, text: str) -> int:
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_closed_stdout_ends_an_oracle_sweep_after_one_column(
        monkeypatch, tmp_path, fmt):
    from cangeo import fatpoints

    measure, measured = fatpoints.alpha_rank, []

    def alpha_rank(d, *args, **kwargs):
        measured.append(d)
        return measure(d, *args, **kwargs)

    monkeypatch.setattr(fatpoints, "alpha_rank", alpha_rank)
    with open(tmp_path / "stdout", "w") as sink:
        # main points the descriptor at devnull: give it one of its own
        monkeypatch.setattr(sys, "stdout", _ClosedStdout(sink.fileno()))
        code = cli.main(["table", "--d", "2..8", "--s", "1..40", "--oracle",
                         "--format", fmt])
        monkeypatch.undo()
    assert code == 1
    assert measured == [2]


def test_a_mismatch_in_the_last_column_exits_3(capsys, monkeypatch):
    # (3, 5) measures not surjective; only d = 3's formula is made to
    # claim yes, so the MISMATCH is known once the last column is measured
    real = cli.alpha_surjective
    monkeypatch.setattr(cli, "alpha_surjective", lambda pair: (
        cli.TriState.YES if pair.d == 3 else real(pair)))
    code, out, _ = run_main(capsys, "table", "--d", "2..3", "--s", "5..5",
                            "--oracle", "--format", "csv")
    assert code == 3
    assert [row["oracle_flag"] for row in csv.DictReader(io.StringIO(out))] == [
        "MATCH", "MISMATCH"]


# --- numpy only for the oracle --------------------------------------------

def test_closed_forms_never_import_numpy():
    code = """
import contextlib, io, sys
import cangeo
assert set(cangeo.__all__) <= set(dir(cangeo))
assert sorted(n for n in sys.modules if n.startswith("cangeo")) == [
    "cangeo", "cangeo.classify", "cangeo.defaults"]
import cangeo.cli, cangeo.classify
# the eager re-export is not rebound to the submodule of the same name
assert cangeo.classify is sys.modules["cangeo.classify"].classify
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["geography", "--d", "2..9"], ["table", "--d", "2..9", "--s", "1..50"],
                 ["classify", "4", "9"], ["xi", "--m", "5", "--dmax", "100"]):
        assert cangeo.cli.main(argv + ["--format", "csv"]) == 0
assert "numpy" not in sys.modules, "numpy imported"
for name in cangeo.__all__:
    getattr(cangeo, name)
assert "numpy" in sys.modules
namespace = {}
exec("from cangeo import *", namespace)
assert set(cangeo.__all__) <= set(namespace)
assert namespace["alpha_rank"] is sys.modules["cangeo.fatpoints"].alpha_rank
for name in cangeo.__all__:
    value = getattr(cangeo, name)
    if isinstance(value, int):   # a constant: defaults or the oracle's
        home = sys.modules["cangeo.defaults"]
        if name not in vars(home):
            home = sys.modules["cangeo.fatpoints"]
    else:
        home = sys.modules[value.__module__]
    assert vars(home)[name] is value, name
    if name not in vars(cangeo):
        # loaded on first use and never cached: a rebinding shows at once
        setattr(home, name, None)
        assert getattr(cangeo, name) is None, name
        setattr(home, name, value)
        assert name not in vars(cangeo), name
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()


def test_the_public_names_are_frozen():
    import cangeo

    assert set(cangeo.__all__) == {
        "BlowupPair", "ClassificationRecord", "DEFAULT_PRIME", "DEFAULT_SEED",
        "DEFAULT_TRIALS", "DeformationClass", "DivisorClass", "Enumeration",
        "FatPointSystem", "GeographyLine", "MAX_ELIMINATION_WORK",
        "MAX_MATRIX_ENTRIES", "MAX_PRIME", "MAX_TRIALS", "ModuliDims",
        "OracleLimitError", "PointConfiguration", "ScrollSpec",
        "ScrollWitness", "SurfaceInvariants", "TriState", "TwoComponentPoint",
        "UnwitnessedCandidate", "alpha_rank", "alpha_surjective",
        "chi_tangent_blowup", "classify", "cover_invariants",
        "deformation_class", "ext1_nonzero", "find_witness",
        "geography_lines", "h0_fatpoints", "h0_normal_of_cover", "line_for_m",
        "moduli_dim_degree2", "moduli_dims_degree1", "monomial_basis",
        "on_line", "s_for_degree", "scroll_admissible", "scroll_class_total",
        "scroll_line_hits", "scroll_surface_invariants",
        "smooth_cover_exists", "two_component_points", "vanishing_matrix",
        "very_ample", "zone_rule"}


# No command loads numpy.random (the oracle draws with the standard library)
# or dataclasses (and its import of inspect), beyond what numpy loads itself:
# numpy 1.x's own `import numpy` loads numpy.random, numpy 2 does not.
NEVER_LOADED = {"numpy.random", "dataclasses"}


def _imports(argv):
    """The modules a child imports, read from its -X importtime lines."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv],
                          capture_output=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr.decode()
    return {line.rpartition("|")[2].strip()
            for line in proc.stderr.decode().splitlines()
            if line.startswith("import time:")}


@pytest.fixture(scope="module")
def numpy_imports():
    return _imports(["-c", "import numpy"])


@pytest.mark.parametrize("argv, loaded, not_loaded", [
    (["oracle", "h0", "--k", "12", "--r", "3", "--s", "14"],
     {"cangeo.fatpoints", "numpy"},
     {"cangeo.atlas", "cangeo.scrolls", "cangeo.invariants", *NEVER_LOADED}),
    # a prediction of the r = 4 cover family is arithmetic on the system:
    # invariants is not loaded
    (["oracle", "h0", "--k", "22", "--r", "4", "--s", "25"],
     {"cangeo.fatpoints", "numpy"},
     {"cangeo.atlas", "cangeo.scrolls", "cangeo.invariants", *NEVER_LOADED}),
    (["oracle", "alpha", "--d", "5", "--s", "12"],
     {"cangeo.fatpoints", "numpy"},
     {"cangeo.atlas", "cangeo.scrolls", "cangeo.invariants", *NEVER_LOADED}),
    # csv cells are quoted by cli's own rule: the csv module is not loaded
    # and no closed-form command loads fractions (or decimal)
    (["table", "--d", "2..9", "--s", "1..50", "--format", "csv"],
     {"cangeo.invariants"},
     {"cangeo.atlas", "cangeo.scrolls", "cangeo.fatpoints", "numpy", "csv",
      "json", "fractions", "decimal", *NEVER_LOADED}),
    (["table", "--d", "2..9", "--s", "1..50"],
     {"cangeo.invariants"},
     {"cangeo.atlas", "cangeo.scrolls", "numpy", "csv", "json",
      "fractions", "decimal", *NEVER_LOADED}),
    (["xi", "--m", "5", "--dmax", "100"],
     {"cangeo.atlas", "cangeo.scrolls"},
     {"numpy", "fractions", "decimal", *NEVER_LOADED}),
    (["geography", "--d", "2..9", "--format", "json"],
     {"cangeo.atlas", "json"},
     {"numpy", "fractions", "decimal", *NEVER_LOADED}),
], ids=["oracle-h0", "oracle-h0-cover", "oracle-alpha", "table-csv", "table",
        "xi", "geography-json"])
def test_each_command_imports_only_the_layers_it_runs(argv, loaded,
                                                      not_loaded,
                                                      numpy_imports):
    imported = _imports([*RUN[1:], *argv])
    assert loaded <= imported
    if "numpy" in imported:
        imported -= numpy_imports
    assert not not_loaded & imported
