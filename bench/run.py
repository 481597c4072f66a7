#!/usr/bin/env python3
"""Benchmark of the cangeo command line, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload h0-ladder --seed 7 --seconds 40 --trace 0
    python3 bench/run.py                # every workload, untraced and traced

`--trace 0` runs the workload's CLI invocations as users do, one fresh
`python -m cangeo` child at a time, and reports end-to-end metrics.
`--trace 1` calls `cangeo.cli.main` in this process with the tracer of
tracer.py installed and reports per-layer metrics.  Every stdout byte is
checked against bench/hashes.json in both modes.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.metadata
import io
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import SPANS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
HASHES = BENCH / "hashes.json"
REFERENCE = BENCH / "reference.py"

DEFAULT_SEED = 0xC0FFEE
# Checked against the stored hashes when they are recorded, and kept out of
# day-to-day development so a claim can be confirmed on a seed it was not
# tuned on.
HELDOUT_SEED = 0x5EED5

# (k, r, s) rungs: the two curated systems, the multiplicity-4 cover system
# of (d, s) = (8, 25) (k = 2d + 6), and wide multiplicity-5 rungs.  Two
# trials per rung keep a repetition at 4-7 s, so a run takes the median of
# several repetitions, while a wrong reading stays below (R*k/p)**2.
LADDER = [(12, 3, 14), (16, 4, 14), (22, 4, 25), (26, 5, 16), (30, 5, 22),
          (40, 5, 30)]
LADDER_TRIALS = 2

WORKLOADS = {
    "oracle-sweep": [
        ["table", "--d", "2..8", "--s", "1..40", "--oracle", "--format", "csv"],
    ],
    "h0-ladder": [
        ["oracle", "h0", "--k", str(k), "--r", str(r), "--s", str(s),
         "--trials", str(LADDER_TRIALS), "--format", "csv"]
        for k, r, s in LADDER
    ],
    "closed-form": [
        ["table", "--d", "2..40", "--s", "1..400", "--format", "csv"],
        ["geography", "--d", "2..60", "--format", "json"],
        ["xi", "--m", "5", "--dmax", "2000"],
    ],
}

# The metrics of the closing JSON line of an untraced run, as BENCHMARK.json
# declares them.  The *_rel times are in units of the wall time of
# reference.py, and setup_s is in seconds of a host on which reference.py
# takes REF_NOMINAL_S: both take out the drift of a shared host's speed.
END_TO_END = [("setup_s", "s"), ("wall_rel", "ref"), ("cpu_rel", "ref"),
              ("first_byte_rel", "ref"), ("peak_rss_mb", "MB")]
# Printed beside them: the times in plain seconds, and the reference itself.
END_TO_END_PRINTED = [("setup_s", "s"), ("setup_raw_s", "s"),
                      ("wall_s", "s"), ("cpu_s", "s"),
                      ("first_byte_s", "s"), ("peak_rss_mb", "MB"),
                      ("ref_s", "s"), ("wall_rel", "ref"), ("cpu_rel", "ref"),
                      ("first_byte_rel", "ref")]

PER_LAYER = [
    ("fatpoints.draw.calls", "count"), ("fatpoints.draw.self_s", "s"),
    ("fatpoints.build.calls", "count"), ("fatpoints.build.self_s", "s"),
    ("fatpoints.build.entries", "count"),
    ("fatpoints.eliminate.calls", "count"), ("fatpoints.eliminate.self_s", "s"),
    ("fatpoints.eliminate.entries", "count"),
    ("fatpoints.rref.calls", "count"), ("fatpoints.rref.self_s", "s"),
    ("fatpoints.kernel.self_s", "s"), ("fatpoints.alpha.self_s", "s"),
    ("fatpoints.h0.self_s", "s"),
    ("classify.classify.calls", "count"), ("classify.classify.self_s", "s"),
    ("classify.zone_rule.self_s", "s"),
    ("classify.smooth_cover.calls", "count"),
    ("classify.smooth_cover.self_s", "s"),
    ("classify.smooth_cover.per_row", "ratio"),
    ("classify.deformation.calls", "count"),
    ("invariants.cover.calls", "count"), ("invariants.cover.self_s", "s"),
    ("atlas.enumerate.self_s", "s"), ("atlas.lines.self_s", "s"),
    ("scrolls.admissible.calls", "count"), ("scrolls.admissible.self_s", "s"),
    ("cli.records.self_s", "s"), ("cli.emit.self_s", "s"),
    ("cli.emit.bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
]

# Spans each workload reaches; every span is reached by some workload.  The
# per-layer metrics of the other spans read 0 on that workload.
SPANS_HIT = {
    "oracle-sweep": {
        "fatpoints.draw", "fatpoints.build", "fatpoints.eliminate",
        "fatpoints.rref", "fatpoints.kernel", "fatpoints.alpha",
        "classify.classify", "classify.zone_rule", "classify.smooth_cover",
        "classify.deformation", "invariants.cover", "cli.records", "cli.emit",
    },
    "h0-ladder": {
        "fatpoints.draw", "fatpoints.build", "fatpoints.eliminate",
        "fatpoints.h0", "classify.smooth_cover", "cli.records", "cli.emit",
    },
    "closed-form": {
        "classify.classify", "classify.zone_rule", "classify.smooth_cover",
        "classify.deformation", "invariants.cover", "atlas.enumerate",
        "atlas.lines", "scrolls.admissible", "cli.records", "cli.emit",
    },
}
# Layers a workload must never call: closed-form output is exact arithmetic,
# so an oracle change must leave that workload alone.
NEVER_CALLED = {"closed-form": "fatpoints."}

SETUP_SAMPLES_PER_REP = 2
# setup_s is given in seconds of a host on which reference.py takes this
# long; it took 0.33-0.49 s on the 2-core guest the bounds were set on.
REF_NOMINAL_S = 0.35
# reference.py runs until its total time is this share of the workload's.
REF_SHARE = 0.25
INVOCATION_TIMEOUT_S = 60.0
# Past this point of a run no invocation gets more time, so a run always
# ends well inside the 180 s a run may take.
RUN_DEADLINE_S = 150.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS")


# ---------------------------------------------------------------------------
# output check
# ---------------------------------------------------------------------------

def seed_free(stdout: bytes, seed: int) -> bytes | None:
    """stdout with the echoed seed blanked, or None if the echo is wrong.

    Oracle readings are generic values, the same for every seed (the README
    bounds the chance of a wrong reading), so only the `seed` column of a
    CSV output depends on the seed, and one stored hash checks every seed.
    """
    lines = stdout.split(b"\r\n")
    header = lines[0].split(b",")
    if b"seed" not in header:
        return stdout
    col = header.index(b"seed")
    for i in range(1, len(lines)):
        if lines[i]:
            fields = lines[i].split(b",")
            if len(fields) <= col or fields[col] != str(seed).encode():
                return None
            fields[col] = b"SEED"
            lines[i] = b",".join(fields)
    return b"\r\n".join(lines)


def sha256(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()


def load_hashes() -> dict:
    if HASHES.is_file():
        return json.loads(HASHES.read_text())
    return {"checked_seeds": [], "seed_free": {}}


class OutputCheck:
    """Expected stdout for each invocation of one workload at any seed."""

    def __init__(self, workload: str, seed: int):
        self.seed = seed
        self.expected = load_hashes()["seed_free"].get(workload)
        if self.expected is None:
            raise SystemExit(f"no stored output hashes for {workload}; "
                             "record them with --record")

    def ok(self, index: int, stdout: bytes) -> bool:
        return sha256(seed_free(stdout, self.seed)) == self.expected[index]


# ---------------------------------------------------------------------------
# subprocess runs
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    return env


def spawn(cmd: list[str], timeout: float) -> dict:
    """Run one child to completion, timing it from outside.

    Reads stdout and stderr as they arrive, notes the first stdout byte and
    takes CPU time and peak RSS from the child's own rusage.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=child_env(), cwd=ROOT)
    out: list[bytes] = []
    err: list[bytes] = []
    first_byte = None
    timed_out = False
    deadline = start + timeout
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ, out)
            sel.register(proc.stderr, selectors.EVENT_READ, err)
            while sel.get_map():
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    timed_out = True
                    proc.kill()
                    break
                for key, _ in sel.select(remaining):
                    chunk = os.read(key.fd, 1 << 16)
                    if not chunk:
                        sel.unregister(key.fileobj)
                        continue
                    if key.data is out and first_byte is None:
                        first_byte = time.perf_counter() - start
                    key.data.append(chunk)
    except BaseException:
        # Interrupted or terminated: leave no child behind.
        proc.kill()
        proc.wait()
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "first_byte": wall if first_byte is None else first_byte,
        "maxrss_kb": usage.ru_maxrss,
        "rc": proc.returncode,
        "timed_out": timed_out,
        "stdout": b"".join(out),
        "stderr": b"".join(err),
    }


def report_failure(argv: list[str], why: str, stderr: bytes = b"") -> None:
    print(f"FAILED {' '.join(argv)}: {why}", file=sys.stderr)
    tail = stderr.decode(errors="replace").strip().splitlines()[-5:]
    for line in tail:
        print(f"  | {line}", file=sys.stderr)


def measure_setup(count: int) -> list[float]:
    """Wall times of `count` fresh interpreters importing cangeo.cli."""
    cmd = [sys.executable, "-c", "import cangeo.cli"]
    samples = []
    for _ in range(count):
        res = spawn(cmd, INVOCATION_TIMEOUT_S)
        if res["rc"] != 0 or res["timed_out"]:
            report_failure(cmd, f"exit {res['rc']}", res["stderr"])
            raise SystemExit(1)
        samples.append(res["wall"])
    return samples


def measure_reference() -> float:
    """Wall time of one run of reference.py in a fresh interpreter."""
    cmd = [sys.executable, str(REFERENCE)]
    res = spawn(cmd, INVOCATION_TIMEOUT_S)
    if res["rc"] != 0 or res["timed_out"]:
        report_failure(cmd, f"exit {res['rc']}", res["stderr"])
        raise SystemExit(1)
    return res["wall"]


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    """Repeat the workload's invocations as child processes for `seconds`.

    After each invocation reference.py runs until its total time is
    REF_SHARE of the invocations' so far, so the reference samples the host
    throughout the run, as the workload does.
    """
    run_start = time.perf_counter()
    check = OutputCheck(workload, seed)
    # The first imports write the bytecode caches, which users pay once per
    # install, not once per run; they are not samples.  Later samples are
    # spread over the run, so host speed swings average out in the median.
    measure_setup(1)
    measure_reference()
    setup = measure_setup(SETUP_SAMPLES_PER_REP)
    invocations = [argv + ["--seed", str(seed)] for argv in WORKLOADS[workload]]
    reps, ref = [], []
    measured = 0.0
    attempted = failed = 0
    loop_start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        wall = cpu = first_byte = 0.0
        peak_kb = 0
        for index, argv in enumerate(invocations):
            attempted += 1
            left = run_start + RUN_DEADLINE_S - time.perf_counter()
            if left <= 0:
                failed += 1
                report_failure(argv, "run deadline passed before it started")
                continue
            res = spawn([sys.executable, "-m", "cangeo", *argv],
                        min(INVOCATION_TIMEOUT_S, left))
            measured += res["wall"]
            while sum(ref) < REF_SHARE * measured:
                ref.append(measure_reference())
            wall += res["wall"]
            cpu += res["cpu"]
            first_byte += res["first_byte"]
            peak_kb = max(peak_kb, res["maxrss_kb"])
            if res["timed_out"]:
                why = "timed out"
            elif res["rc"] != 0:
                why = f"exit {res['rc']}"
            elif not check.ok(index, res["stdout"]):
                why = "stdout differs from the stored hash"
            else:
                continue
            failed += 1
            report_failure(argv, why, res["stderr"])
        setup += measure_setup(SETUP_SAMPLES_PER_REP)
        reps.append({"wall_s": wall, "cpu_s": cpu, "first_byte_s": first_byte,
                     "peak_rss_mb": peak_kb / 1024})
        now = time.perf_counter()
        if now - loop_start + (now - rep_start) > seconds:
            break
    # The host's speed drifts by tens of percent within minutes, and the
    # reference program drifts with it: the ratio of the mean repetition to
    # the mean reference run cancels most of that drift.
    ref_s = statistics.fmean(ref)
    setup_raw_s = statistics.median(setup)
    metrics = {"setup_s": (setup_raw_s * REF_NOMINAL_S / ref_s, len(setup)),
               "setup_raw_s": (setup_raw_s, len(setup))}
    for name in ("wall_s", "cpu_s", "first_byte_s", "peak_rss_mb"):
        metrics[name] = (statistics.median(r[name] for r in reps), len(reps))
    metrics["ref_s"] = (ref_s, len(ref))
    for name in ("wall", "cpu", "first_byte"):
        mean = statistics.fmean(r[name + "_s"] for r in reps)
        metrics[name + "_rel"] = (mean / ref_s, len(reps))
    return {"attempted": attempted, "failed": failed, "checks": [],
            "samples": metrics, "units": dict(END_TO_END_PRINTED),
            "declared": [name for name, _ in END_TO_END]}


# ---------------------------------------------------------------------------
# in-process traced runs
# ---------------------------------------------------------------------------

class Sink(io.TextIOBase):
    """Stand-in for sys.stdout that keeps the bytes and counts them."""

    def __init__(self):
        self.parts: list[bytes] = []
        self.nbytes = 0

    def write(self, text: str) -> int:
        data = text.encode()
        self.parts.append(data)
        self.nbytes += len(data)
        return len(text)

    def getvalue(self) -> bytes:
        return b"".join(self.parts)


class InvocationTimeout(Exception):
    pass


class Terminated(BaseException):
    """SIGTERM, raised so that spawn() reaps its child on the way out."""


def _terminate(signum, frame):
    raise Terminated("terminated")


def _raise_timeout(signum, frame):
    raise InvocationTimeout("timed out")


def run_inprocess(main, invocations: list[list[str]],
                  deadline: float) -> tuple[float, list]:
    """Call cli.main once per invocation; returns wall time and outcomes.

    An outcome is (exit code, stdout, stderr).  An exception, a timeout
    (SIGALRM after INVOCATION_TIMEOUT_S, or at `deadline` on the
    perf_counter clock) or a deadline already passed is exit code 1 with
    the reason in stderr.
    """
    outcomes = []
    start = time.perf_counter()
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    try:
        for argv in invocations:
            left = min(INVOCATION_TIMEOUT_S, deadline - time.perf_counter())
            if left <= 0:
                outcomes.append(
                    (1, b"", b"run deadline passed before it started"))
                continue
            out, err = Sink(), Sink()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                signal.setitimer(signal.ITIMER_REAL, left)
                try:
                    rc = main(argv)
                except SystemExit as exc:
                    rc = exc.code
                except Exception:
                    rc = 1
                    traceback.print_exc()
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            outcomes.append((rc, out.getvalue(), err.getvalue()))
    finally:
        signal.signal(signal.SIGALRM, previous)
    return time.perf_counter() - start, outcomes


def layer_metrics(snapshot: dict) -> dict:
    """Per-layer metric values from one traced repetition."""
    values = {}
    for name, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        values[name] = snapshot.get(span, {}).get(field, 0)
    rows = snapshot.get("cli.emit", {}).get("rows", 0)
    values["classify.smooth_cover.per_row"] = (
        values["classify.smooth_cover.calls"] / rows if rows else 0.0)
    return values


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    """Alternate untraced and traced in-process repetitions for `seconds`."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    sys.path.insert(0, str(SRC))
    main = importlib.import_module("cangeo.cli").main
    check = OutputCheck(workload, seed)
    invocations = [argv + ["--seed", str(seed)] for argv in WORKLOADS[workload]]
    tracer = Tracer()
    plain_walls, traced_walls, snapshots = [], [], []
    attempted = failed = 0
    checks = []
    loop_start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        wall, plain = run_inprocess(main, invocations, deadline)
        plain_walls.append(wall)
        tracer.reset()
        tracer.install()
        try:
            wall, traced = run_inprocess(main, invocations, deadline)
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        snapshots.append(tracer.snapshot())
        for index, argv in enumerate(invocations):
            for label, (rc, out, err) in (("untraced", plain[index]),
                                          ("traced", traced[index])):
                attempted += 1
                if rc != 0:
                    why = f"{label} in-process exit {rc}"
                elif not check.ok(index, out):
                    why = f"{label} stdout differs from the stored hash"
                else:
                    continue
                failed += 1
                report_failure(argv, why, err)
        now = time.perf_counter()
        if now - loop_start + (now - pair_start) > seconds or now > deadline:
            break
    prefix = NEVER_CALLED.get(workload)
    if prefix and any(stats["calls"] for span, stats in snapshots[0].items()
                      if span.startswith(prefix)):
        checks.append(f"{workload} called {prefix}* functions")
    per_rep = [layer_metrics(s) for s in snapshots]
    counts = [{k: v for k, v in rep.items() if not k.endswith("self_s")}
              for rep in per_rep]
    if any(rep != counts[0] for rep in counts):
        checks.append("per-layer counts differ between traced repetitions")
    metrics = {}
    for name, _ in PER_LAYER:
        if name in counts[0]:
            metrics[name] = (counts[0][name], len(per_rep))
        else:
            metrics[name] = (statistics.median(rep[name] for rep in per_rep),
                             len(per_rep))
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls),
        len(traced_walls))
    return {"attempted": attempted, "failed": failed, "checks": checks,
            "samples": metrics, "units": dict(PER_LAYER),
            "declared": [name for name, _ in PER_LAYER]}


# ---------------------------------------------------------------------------
# host context and reporting
# ---------------------------------------------------------------------------

def _cpu_times() -> list[int] | None:
    try:
        with open("/proc/stat") as f:
            return [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def _calibrate() -> float:
    """Median time of a fixed pure-Python loop: tracks host speed drift."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        sum(i * i for i in range(200_000))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def host_context() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg": os.getloadavg(),
        "thread_env": {k: os.environ[k] for k in THREAD_ENV if k in os.environ},
        "calib_s": _calibrate(),
    }


def steal_share(before, after) -> float | None:
    """Share of CPU time stolen by the hypervisor between two readings."""
    if before is None or after is None or len(before) < 8:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total else 0.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    host = host_context()
    stat_before = _cpu_times()
    run = run_traced if trace else run_untraced
    result = run(workload, seed, seconds)
    host["loadavg_end"] = os.getloadavg()
    host["steal_share"] = steal_share(stat_before, _cpu_times())
    print(json.dumps({"workload": workload, "seed": seed, "trace": int(trace),
                      "host": host}))
    for name, (value, n) in result["samples"].items():
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
        span = name.rpartition(".")[0]
        note = " not reached" if span in SPANS and \
            span not in SPANS_HIT[workload] else ""
        print(f"{workload:>13}  {name:<32} {shown} "
              f"{result['units'][name]:<6} (n={n}){note}")
    ratio = result["failed"] / result["attempted"]
    print(f"{workload:>13}  {'failed_ratio':<32} {ratio:>14.6g} ratio  "
          f"({result['failed']} of {result['attempted']} invocations)")
    for problem in result["checks"]:
        print(f"CHECK FAILED {workload}: {problem}", file=sys.stderr)
    result["correct"] = result["failed"] == 0 and not result["checks"]
    return result


def contract_line(results: dict[str, dict]) -> str:
    """The closing JSON line; names are prefixed when several workloads ran."""
    metrics = {}
    for prefix, res in results.items():
        for name in res["declared"]:
            metrics[prefix + name] = {"value": res["samples"][name][0],
                                      "unit": res["units"][name]}
    return json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    })


def record() -> None:
    """Store the seed-free stdout hash of every invocation.

    The outputs at the default and the held-out seed must give the same
    hashes, else nothing is stored.
    """
    seeds = [DEFAULT_SEED, HELDOUT_SEED]
    stored = {"checked_seeds": seeds, "seed_free": {}}
    for workload, argvs in WORKLOADS.items():
        for seed in seeds:
            free = []
            for argv in argvs:
                argv = argv + ["--seed", str(seed)]
                res = spawn([sys.executable, "-m", "cangeo", *argv],
                            INVOCATION_TIMEOUT_S)
                if res["rc"] != 0 or res["timed_out"]:
                    report_failure(argv, f"exit {res['rc']}", res["stderr"])
                    raise SystemExit(1)
                free.append(sha256(seed_free(res["stdout"], seed)))
            known = stored["seed_free"].setdefault(workload, free)
            if known != free:
                raise SystemExit(f"{workload}: output at seed {seed} differs "
                                 f"from the output at seed {seeds[0]}")
    HASHES.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS],
                        help="one workload, or all of them untraced and "
                             "traced (default)")
    parser.add_argument("--seed", type=lambda t: int(t, 0),
                        default=DEFAULT_SEED,
                        help="workload seed, passed to the CLI as --seed")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: in-process traced run with per-layer "
                             "metrics (--workload all runs both)")
    parser.add_argument("--record", action="store_true",
                        help="store stdout hashes, checked at the default "
                             "and the held-out seed, and exit")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if args.seed < 0:
        parser.error("seed must be nonnegative")
    if not (SRC / "cangeo" / "cli.py").is_file():
        print(f"cangeo sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.record:
        record()
        return 0
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
        print(contract_line({"": result}))
        return 0 if result["correct"] else 1
    results = {}
    for workload in WORKLOADS:
        for trace in (False, True):
            prefix = f"{workload}/trace/" if trace else f"{workload}/"
            results[prefix] = run_workload(workload, args.seed, args.seconds,
                                           trace)
    print(contract_line(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
