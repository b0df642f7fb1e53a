"""End-to-end benchmark of the altcausal CLI.

Usage, from the repository root:

    python3 bench/run.py --workload {defaults,link,operators,all}
                         [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --capture-references

With ``--trace 0`` each invocation of the workload is a fresh
``python -m altcausal.cli`` subprocess, run one after another (a closed
loop with one client), in passes over the workload until ``--seconds``
have elapsed, with a reference job timed between the invocations.  With
``--trace 1`` the workload runs once in this process without tracing and
once with it, and the per-layer metrics are printed.
Every report is gated on exit status, strict JSON and, where the
invocation has one, its reference hash.  A table goes to stdout first;
the last line of stdout is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

import tracer
import workloads

SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150
MAX_ERRORS_SHOWN = 5

# A fixed job on the same interpreter and libraries as the program but
# none of its code.  A shared machine's speed can drift by tens of
# percent within minutes; a pass divided by this job, timed between the
# invocations of the same run, drifts much less (bench/README.md).
REFERENCE_EVERY_S = 2.5
REFERENCE_JOB = """
import numpy as np, scipy.linalg
a = np.arange(256 * 256, dtype=float).reshape(256, 256) % 7.0
for _ in range(2):
    np.linalg.eigvalsh(a + a.T)
s = 0
for i in range(300_000):
    s += i * i
"""


def run_child(cmd: list[str]) -> tuple[int, float, int, str]:
    """Run one child to completion; return (exit code, seconds, max RSS KiB, stderr tail)."""
    err_path = workloads.ROOT / ".bench_work" / "child.stderr"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=workloads.child_env(), stdout=subprocess.DEVNULL,
                                stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
    return proc.returncode, elapsed, usage.ru_maxrss, "".join(tail)


def work_done(args: list[str], report: dict) -> tuple[str, int] | None:
    """Simulated work of one invocation, read from its report."""
    exp = args[0]
    if exp == "pif":
        return "slices", len(report["series"]["cycle"])
    if exp == "fito-vs-pif":   # runs the link once per mode
        return "slices", 2 * len(report["series"]["cycle"])
    if exp == "photonclock":
        return "bounces", int(report["metrics"]["traversals"])
    if exp == "duality":
        return "duality_samples", len(report["series"]["t"])
    return None


def run_pass(invs: list[list[str]], directory, refs: dict,
             references: list[float] | None = None) -> list[dict]:
    """Run the invocations once each and gate their reports.

    With ``references``, a reference job is timed into it before the
    first invocation and then before each invocation that starts
    ``REFERENCE_EVERY_S`` or more after the last reference job.
    """
    records = []
    since_reference = math.inf
    for i, args in enumerate(invs):
        if references is not None and since_reference >= REFERENCE_EVERY_S:
            references.append(timed(REFERENCE_JOB))
            since_reference = 0.0
        out_args, report_path = workloads.output_args(args, directory, i)
        with contextlib.suppress(FileNotFoundError):
            report_path.unlink()
        rc, seconds, rss_kib, tail = run_child(
            [sys.executable, "-m", "altcausal.cli", *args, *out_args])
        since_reference += seconds
        report, digest, error = workloads.check_report(rc, report_path,
                                                       refs.get(workloads.key(args)))
        work = None
        if report is not None:
            try:
                work = work_done(args, report)
            except (KeyError, TypeError, ValueError) as exc:
                error = error or f"report lacks the work done: {exc!r}"
        if error and tail:
            error += f" ({tail})"
        records.append({"args": args, "seconds": seconds, "rss_kib": rss_kib,
                        "digest": digest, "error": error, "work": work})
    return records


def timed(code: str) -> float:
    rc, seconds, _, tail = run_child([sys.executable, "-c", code])
    if rc != 0:
        raise RuntimeError(f"python -c {code.strip().splitlines()[0]!r} failed: {tail}")
    return seconds


def setup_times() -> list[float]:
    """Wall time of fresh interpreters that only import the CLI; a first one warms caches."""
    timed("import altcausal.cli")
    return [timed("import altcausal.cli") for _ in range(SETUP_SAMPLES)]


def rates(passes: list[list[dict]]) -> dict[str, float]:
    """Median over passes of each kind of work per second of the invocations doing it."""
    per_pass: dict[str, list[float]] = {}
    for records in passes:
        work: dict[str, list[float]] = {}
        for r in records:
            if r["work"]:
                unit, amount = r["work"]
                done = work.setdefault(unit, [0.0, 0.0])
                done[0] += amount
                done[1] += r["seconds"]
        work["invocations"] = [len(records), sum(r["seconds"] for r in records)]
        for unit, (amount, seconds) in work.items():
            per_pass.setdefault(unit, []).append(amount / seconds)
    return {unit: statistics.median(v) for unit, v in per_pass.items()}


def measure(workload: str, seed: int, seconds: float, small: bool = False) -> dict:
    invs = workloads.invocations(workload, seed, small)
    directory = workloads.workdir(workload)
    refs = workloads.references()
    setup = setup_times()
    references: list[float] = []
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(invs, directory, refs, references))
    wall = statistics.median(sum(r["seconds"] for r in p) for p in passes)
    reference = statistics.median(references)
    records = [r for p in passes for r in p]
    errors = [f"{workloads.key(r['args'])}: {r['error']}" for r in records if r["error"]]
    times = [r["seconds"] for r in records]
    rate = rates(passes)
    table = [
        ("setup_s", statistics.median(setup), "s", f"median of {len(setup)} imports"),
        ("wall_rel", wall / reference, "ref", "wall_s over reference_s"),
        ("peak_rss_mb", max(r["rss_kib"] for r in records) / 1024, "MB", "max over children"),
    ]
    # Printed, not in the result line: raw times move with the box's speed,
    # and the p50 and the rates time only part of a pass (bench/README.md).
    extra = [("wall_s", wall, "s", f"median of {len(passes)} passes"),
             ("reference_s", reference, "s", f"median of {len(references)} reference jobs"),
             ("invocation_p50_s", statistics.median(times), "s", f"n={len(times)}"),
             ("failed_ratio", len(errors) / len(records), "ratio", "")]
    extra += [(f"{unit}_per_s", value, "1/s", "") for unit, value in sorted(rate.items())]
    return {"table": table, "extra": extra, "attempted": len(records), "errors": errors}


def trace(workload: str, seed: int) -> dict:
    result = tracer.traced_run(workload, seed)
    errors = [f"{workloads.key(a)}: {e}" for a, e in zip(result["invocations"], result["errors"])
              if e]
    table = [(name, value, tracer.unit(name), "") for name, value in result["metrics"].items()]
    return {"table": table, "extra": [], "attempted": len(result["invocations"]),
            "errors": errors}


def capture_references() -> None:
    """Record report hashes of every workload at the reference seed."""
    refs = {}
    for workload in workloads.WORKLOADS:
        invs = workloads.invocations(workload, workloads.REFERENCE_SEED)
        for r in run_pass(invs, workloads.workdir(workload), {}):
            if r["error"]:
                raise RuntimeError(f"{workloads.key(r['args'])}: {r['error']}")
            refs[workloads.key(r["args"])] = r["digest"]
    doc = {"reference_seed": workloads.REFERENCE_SEED,
           "environment": workloads.environment(cpu_model=True),
           "hashes": dict(sorted(refs.items()))}
    workloads.REFERENCES.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {len(refs)} reference hashes to {workloads.REFERENCES}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--capture-references", action="store_true")
    ns = parser.parse_args(argv)
    if not ns.capture_references and ns.workload is None:
        parser.error("--workload is required")

    workloads.pin_blas_threads()
    if not workloads.program_present():
        print(f"error: no program at {workloads.SRC}/altcausal", file=sys.stderr)
        return 2
    (workloads.ROOT / ".bench_work").mkdir(exist_ok=True)
    if ns.capture_references:
        capture_references()
        return 0

    env = workloads.environment()
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    names = workloads.WORKLOADS if ns.workload == "all" else (ns.workload,)
    for workload in names:
        try:
            result = trace(workload, ns.seed) if ns.trace else measure(workload, ns.seed,
                                                                       ns.seconds)
        except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"workload {workload}, seed {ns.seed}, trace {ns.trace}: "
              f"{result['attempted']} invocations, {len(result['errors'])} failed")
        for error in result["errors"][:MAX_ERRORS_SHOWN]:
            print(f"  FAILED {error}", file=sys.stderr)
        for name, value, unit, note in result["table"] + result["extra"]:
            print(f"  {name:34s} {value:14.6g} {unit:6s} {note}")
        metrics = {name: {"value": value, "unit": unit}
                   for name, value, unit, _ in result["table"]}
        print(json.dumps({"correct": not result["errors"], "attempted": result["attempted"],
                          "failed": len(result["errors"]), "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
