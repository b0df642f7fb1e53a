"""Every report byte, pinned.

``golden_reports.json`` holds the sha256 of the JSON, CSV and SVG that
``cli.main`` writes for each invocation below, with the Python, numpy and
scipy versions they were taken under.  Each runs once, exits 0 and prints
its summary; the pinned bytes fix the rest, such as a report's checks.
It holds every experiment at defaults and at the smoke sizes of
``test_cli.FAST_ARGS``, and every invocation of ``bench/workloads.py`` at
its reference seed, read from that file so that the corpus follows the
benchmark.  All run in this process on matrices of at most 16 x 16,
whose hashes hold at any BLAS thread count, but the ``IN_A_CHILD`` pair:
its 256 x 256 decompositions round differently at 1 and 2 threads, so it
runs in a fresh ``python -m altcausal.cli``, which pins BLAS, at each.

Regenerate the file only when a report is meant to change, and say so in
``CHANGES.md``; it writes nothing if a run fails or numpy or scipy is not
the version in ``.github/constraints.txt``::

    PYTHONPATH=src python tests/test_golden_reports.py --write
"""

import hashlib
import importlib.util
import json
import os
import platform
import subprocess
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path

import pytest

from altcausal import cli
from test_cli import FAST_ARGS

GOLDEN = Path(__file__).with_name("golden_reports.json")
ROOT = Path(__file__).resolve().parents[1]
CONSTRAINTS = ROOT / ".github" / "constraints.txt"
FORMATS = ("json", "csv", "svg")

_spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
_spec.loader.exec_module(workloads := importlib.util.module_from_spec(_spec))
# less the --format json,csv,svg that _runs sets itself
BENCHMARK = [" ".join(arg for arg in args if arg not in ("--format", ",".join(FORMATS)))
             for workload in workloads.WORKLOADS
             for args in workloads.invocations(workload, workloads.REFERENCE_SEED)]
IN_A_CHILD = tuple(invocation for invocation in BENCHMARK
                   if invocation.startswith("duality --dim 4 "))

# every experiment at its defaults, then variants whose check lists differ,
# then edge values: zeros of both signs, a subnormal-scale noise, every
# cascade size, the smallest and odd sizes, and a seed whose echo ledger
# needed the balance rule, then the smoke sizes and the benchmark
INVOCATIONS = [*cli._EXPERIMENTS,
               "duality --skew 0.01", "rcp --epsilon 0", "pif --echo-loss 1",
               "capacity --flip-backward 0.2", "switch --case commute",
               "photonclock --decoherence 0",
               *(f"ac-vs-ico --noise {p}" for p in ("0", "1", "1e-300", "-0.0")),
               *(f"cascade --sites {n}" for n in range(2, 13) if n != 4),
               "photonclock --bounces 10000 --seed 4",
               # its event draws and tick columns cross a 65,536-event block
               "photonclock --bounces 70000 --seed 5", "photonclock --decoherence 1",
               "photonclock --decoherence -0.0",
               "pif --flip-forward 0.01 --flip-backward 0.01 --echo-loss 0.6 --seed 6",
               "capacity --n-bits 1", "rcp --dim 7", "switch --points 20001",
               "wfecho --alpha 0.1 --transmitted 8",
               *(" ".join([name, *args]) for name, args in FAST_ARGS.items()), *BENCHMARK]
# once each: wfecho and list at the smoke sizes and the benchmark's unseeded
# defaults runs are the registry defaults
INVOCATIONS = list(dict.fromkeys(INVOCATIONS))


def _environment() -> dict:
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy")}


def _runs(invocation: str, out: Path):
    """Run ``invocation`` into ``out``, yielding (label, exit code) after each run."""
    argv = [*invocation.split(), "--out", str(out), "--format", ",".join(FORMATS)]
    if invocation not in IN_A_CHILD:
        yield repr(invocation), cli.main(argv)
        return
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                   **dict.fromkeys(cli._BLAS_THREAD_VARIABLES, threads))
        yield (f"{invocation!r} at {threads} BLAS threads", subprocess.run(
            [sys.executable, "-m", "altcausal.cli", *argv], env=env, timeout=120).returncode)


def _digests(name: str, out: Path) -> dict:
    """The sha256 of each report file that experiment ``name`` wrote into ``out``."""
    return {fmt: hashlib.sha256((out / f"{name}.{fmt}").read_bytes()).hexdigest()
            for fmt in FORMATS}


@pytest.mark.parametrize("invocation", INVOCATIONS)
def test_report_bytes_match_the_golden_hashes(invocation, tmp_path, capfd):
    golden = json.loads(GOLDEN.read_text())
    name = invocation.split()[0]
    for label, code in _runs(invocation, tmp_path):
        stdout, stderr = capfd.readouterr()   # a child's output too
        assert code == 0, f"{label} exited {code}\n{stderr}"
        assert stdout.startswith(f"experiment: {name}\n"), f"{label} printed {stdout!r}"
        got = _digests(name, tmp_path)
        wrong = [fmt for fmt in FORMATS if got[fmt] != golden["reports"][invocation][fmt]]
        assert not wrong, (f"{label}: {', '.join(wrong)} bytes differ from the golden hashes,"
                           f" taken under {golden['environment']}; this run has {_environment()}")


def test_the_golden_file_holds_exactly_the_invocations():
    assert list(json.loads(GOLDEN.read_text())["reports"]) == INVOCATIONS


def _write() -> None:
    pins = (word.split("==") for word in CONSTRAINTS.read_text().split() if "==" in word)
    off = [f"{name} {version(name)} (pinned {pin})" for name, pin in pins if version(name) != pin]
    if off:
        sys.exit(f"wrote nothing: {', '.join(off)}")
    reports = {}
    with tempfile.TemporaryDirectory() as out:
        for invocation in INVOCATIONS:
            for label, code in _runs(invocation, Path(out)):
                if code != 0:
                    sys.exit(f"wrote nothing: {label} exited {code}")
                got = _digests(invocation.split()[0], Path(out))
                if reports.setdefault(invocation, got) != got:
                    sys.exit(f"wrote nothing: {label} differs from the first run")
    GOLDEN.write_text(json.dumps({"environment": _environment(), "reports": reports},
                                 indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    _write()
