"""Every report byte, pinned.

``golden_reports.json`` holds the sha256 of the JSON, CSV and SVG that
``cli.main`` writes for each invocation below, with the Python, numpy and
scipy versions they were taken under.  Every invocation runs at dim 2
but ``rcp``, at 4 and 7, so its matrices are at most 16 x 16 (a dim 2
``duality`` member), far below where BLAS splits work across threads:
the hashes hold whatever thread count the test process runs with.

Regenerate the file only when a report is meant to change, and say so in
``CHANGES.md``::

    PYTHONPATH=src python tests/test_golden_reports.py --write
"""

import hashlib
import json
import platform
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path

import pytest

from altcausal import cli

GOLDEN = Path(__file__).with_name("golden_reports.json")
FORMATS = ("json", "csv", "svg")

# every experiment at its defaults, then variants whose check lists differ,
# then edge values: zeros of both signs, a subnormal-scale noise, every
# cascade size, the smallest and odd sizes, and a seed whose echo ledger
# needed the balance rule
INVOCATIONS = [*cli._EXPERIMENTS,
               "duality --skew 0.01", "rcp --epsilon 0", "pif --echo-loss 1",
               "capacity --flip-backward 0.2", "switch --case commute",
               "photonclock --decoherence 0",
               *(f"ac-vs-ico --noise {p}" for p in ("0", "1", "1e-300", "-0.0")),
               *(f"cascade --sites {n}" for n in range(2, 13) if n != 4),
               "photonclock --bounces 10000 --seed 4", "photonclock --decoherence 1",
               "photonclock --decoherence -0.0",
               "pif --flip-forward 0.01 --flip-backward 0.01 --echo-loss 0.6 --seed 6",
               "capacity --n-bits 1", "rcp --dim 7", "switch --points 20001",
               "wfecho --alpha 0.1 --transmitted 8"]


def _environment() -> dict:
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy")}


def _digests(invocation: str, out: Path) -> dict:
    """The sha256 of each report file that ``invocation`` writes into ``out``."""
    argv = invocation.split()
    cli.main([*argv, "--out", str(out), "--format", ",".join(FORMATS)])
    return {fmt: hashlib.sha256((out / f"{argv[0]}.{fmt}").read_bytes()).hexdigest()
            for fmt in FORMATS}


@pytest.mark.parametrize("invocation", INVOCATIONS)
def test_report_bytes_match_the_golden_hashes(invocation, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert invocation in golden["reports"], f"{invocation!r} has no golden hashes"
    got = _digests(invocation, tmp_path)
    wrong = [fmt for fmt in FORMATS if got[fmt] != golden["reports"][invocation][fmt]]
    assert not wrong, (f"{invocation!r}: {', '.join(wrong)} bytes differ from the golden"
                       f" hashes, taken under {golden['environment']}; this run has"
                       f" {_environment()}")


def _write() -> None:
    with tempfile.TemporaryDirectory() as out:
        reports = {invocation: _digests(invocation, Path(out)) for invocation in INVOCATIONS}
    GOLDEN.write_text(json.dumps({"environment": _environment(), "reports": reports},
                                 indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    _write()
