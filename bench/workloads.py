"""Workload definitions, the pinned child environment and the report gate.

A workload is a fixed list of CLI invocations, each given as the
experiment's own arguments; the runner appends the output flags.  The
workload seed is the only input: every invocation that takes ``--seed``
gets one derived from it, so the same workload seed always produces the
same invocations.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCES = BENCH_DIR / "references.json"

REFERENCE_SEED = 0

# OpenBLAS picks a different reduction order for the 256x256
# decompositions of ``duality --dim 4`` at 2 threads than at 1, which
# changes the last bits of two metrics; one thread is valid on any box.
BLAS_THREADS = 1
BLAS_ENV = {name: str(BLAS_THREADS)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

# The experiments that accept --seed; the others are deterministic.
SEEDED = {"duality", "photonclock", "cascade", "pif", "fito-vs-pif", "capacity", "rcp"}

EXPERIMENTS = ("duality", "switch", "ac-vs-ico", "photonclock", "cascade", "wfecho",
               "pif", "fito-vs-pif", "capacity", "rcp")

WORKLOADS = ("defaults", "link", "operators")


def _sizes(workload: str, small: bool) -> list[list[str]]:
    if workload == "defaults":
        # Default sizes are already small; startup dominates.
        return [[name, "--format", "json,csv,svg"] for name in EXPERIMENTS + ("list",)]
    if workload == "link":
        slices = "2000" if small else "100000"
        return [
            ["pif", "--slices", slices, "--flip-forward", "0.01",
             "--flip-backward", "0.01", "--echo-loss", "0.01"],
            ["fito-vs-pif", "--slices", slices],
            ["capacity", "--n-bits", "100000" if small else "10000000"],
        ]
    if workload == "operators":
        dim, n = ("2", "200") if small else ("4", "2000")
        return [
            ["duality", "--dim", dim, "--phase-mode", "continuous"],
            ["duality", "--dim", dim, "--phase-mode", "discrete"],
            ["photonclock", "--bounces", "300" if small else "10000"],
            ["ac-vs-ico", "--steps", n],
            ["rcp", "--points", n],
            ["cascade", "--sites", "12", "--horizon", n],
            ["switch", "--points", n],
        ]
    raise ValueError(f"unknown workload {workload!r}; pick from {', '.join(WORKLOADS)}")


def invocations(workload: str, seed: int, small: bool = False) -> list[list[str]]:
    """The workload's invocations, with --seed derived from ``seed``."""
    rng = random.Random(f"{workload}/{seed}")
    out = []
    for args in _sizes(workload, small):
        if args[0] in SEEDED:
            args = args + ["--seed", str(rng.randrange(1 << 31))]
        out.append(args)
    return out


def key(args: list[str]) -> str:
    """Reference-table key of an invocation: its experiment arguments."""
    return " ".join(args)


def child_env() -> dict[str, str]:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def pin_blas_threads() -> None:
    """Pin this process's BLAS threads; must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was pinned")
    os.environ.update(BLAS_ENV)


def program_present() -> bool:
    return (SRC / "altcausal" / "cli.py").is_file()


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def report_hash(report: dict) -> str:
    """Hash a report's metrics and series.

    ``config`` and any other key are left out, so reports that only gain
    keys (such as a list of checks) keep their hash.
    """
    canonical = json.dumps({"metrics": report["metrics"], "series": report["series"]},
                           sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(canonical.encode()).hexdigest()


def check_report(rc, path: Path, expected: str | None = None):
    """Gate one invocation: exit status, strict JSON, reference hash.

    Returns (report, hash, error); error is None when the invocation
    passed.  NaN and Infinity make the JSON invalid.
    """
    if rc != 0:
        return None, None, f"exit status {rc}"
    try:
        report = json.loads(path.read_text(), parse_constant=_reject_constant)
        digest = report_hash(report)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return None, None, f"invalid report {path.name}: {exc!r}"
    if expected is not None and digest != expected:
        return report, digest, "report hash differs from the reference"
    return report, digest, None


def output_args(args: list[str], directory: Path, index: int) -> tuple[list[str], Path]:
    """Output flags for one invocation, and the JSON report it writes."""
    if "--format" in args:
        out = directory / f"out{index}"
        out.mkdir(exist_ok=True)
        return ["--out", str(out)], out / f"{args[0]}.json"
    path = directory / f"report{index}.json"
    return ["--json", str(path)], path


def workdir(workload: str) -> Path:
    path = ROOT / ".bench_work" / workload
    path.mkdir(parents=True, exist_ok=True)
    return path


def references() -> dict[str, str]:
    """Reference report hashes by invocation key; empty before capture."""
    try:
        with open(REFERENCES) as fh:
            return json.load(fh)["hashes"]
    except FileNotFoundError:
        return {}


def _blas(package) -> str:
    try:
        blas = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # releases before the dict form of show_config
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def environment(cpu_model: bool = False) -> dict:
    """Versions and machine facts that the timings and hashes depend on."""
    from importlib.metadata import version
    import platform

    import numpy as np
    import scipy

    env = {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numpy_blas": _blas(np),
        "scipy_blas": _blas(scipy),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
    }
    if cpu_model:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                     if line.startswith("model name")), "unknown")
    return env

