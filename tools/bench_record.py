"""Record the benchmark of a change against its parent as ``BENCH_<pr>.json``.

Usage, from the repository root:

    python3 tools/bench_record.py --parent REV --change REV --out BENCH_<pr>.json

Each revision is exported with ``git archive`` into one of two sibling
trees in a temporary directory, removed at the end.  Each of ``PAIRS``
pairs runs the unchanged ``python3 bench/run.py --workload all`` once in
each tree, in alternating order: the parent first in the first pair, the
change first in the second, and so on.  Every run has
``PYTHONDONTWRITEBYTECODE=1``, so neither tree holds a ``__pycache__``
that would speed its imports, and a tree that holds one afterwards
stops the record.

The file holds both commits, the runner's ``environment:`` line, each
run's three result lines (the last stdout line per workload) with the
printed ``wall_s`` and ``reference_s``, and the median of each metric
per workload and side.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

RUNNER = ["python3", "bench/run.py", "--workload", "all"]
PRINTED = ("wall_s", "reference_s")   # table lines kept beside each result line
SIDES = ("parent", "change")
PAIRS = 4


def parse_run(stdout: str) -> dict:
    """The ``environment:`` line, and per workload its result line (parsed)
    and the printed ``wall_s`` and ``reference_s``, from one runner's stdout."""
    environment, workloads, current = None, {}, {}
    for line in stdout.splitlines():
        words = line.split()
        if line.startswith("environment: "):
            environment = line[len("environment: "):]
        elif line.startswith("workload "):
            current = workloads[words[1].rstrip(",")] = {}
        elif line.startswith("{"):
            current["result"] = json.loads(line)
        elif words[:1] and words[0] in PRINTED:
            current[words[0]] = float(words[1])
    if environment is None or not workloads:
        raise ValueError("no environment line or no workload in the output")
    for name, workload in workloads.items():
        missing = {"result", *PRINTED} - set(workload)
        if missing:
            raise ValueError(f"workload {name}: no {', '.join(sorted(missing))} in the output")
    return {"environment": environment, "workloads": workloads}


def medians(runs: list[dict]) -> dict:
    """Per workload, the median over ``runs`` (from ``parse_run``) of each
    result metric and each printed value."""
    values: dict[str, dict[str, list[float]]] = {}
    for run in runs:
        for name, workload in run["workloads"].items():
            found = values.setdefault(name, {})
            for metric, entry in workload["result"]["metrics"].items():
                found.setdefault(metric, []).append(entry["value"])
            for metric in PRINTED:
                found.setdefault(metric, []).append(workload[metric])
            found.setdefault("failed", []).append(workload["result"]["failed"])
    return {name: {metric: statistics.median(v) for metric, v in found.items()}
            for name, found in values.items()}


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def _export(commit: str, tree: Path) -> None:
    tree.mkdir(parents=True)
    with subprocess.Popen(["git", "archive", "--format=tar", commit],
                          stdout=subprocess.PIPE) as proc:
        with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
            tar.extractall(tree, filter="data")
    if proc.returncode != 0:
        raise RuntimeError(f"git archive {commit} exited {proc.returncode}")


def _run(tree: Path) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(RUNNER, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(RUNNER)} in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    caches = sorted(str(p.relative_to(tree)) for p in tree.rglob("__pycache__"))
    if caches:
        raise RuntimeError(f"the run left bytecode caches in {tree}: {', '.join(caches)}")
    return parse_run(proc.stdout)


def record(parent: str, change: str, workdir: Path) -> dict:
    commits = {"parent": _git("rev-parse", parent), "change": _git("rev-parse", change)}
    trees = {side: workdir / side for side in SIDES}
    for side in SIDES:
        _export(commits[side], trees[side])
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for i in range(PAIRS):
        for side in SIDES[::-1] if i % 2 else SIDES:
            runs[side].append(_run(trees[side]))
            print(f"pair {i + 1}/{PAIRS}: {side} done", file=sys.stderr, flush=True)
    environments = {run["environment"] for side in SIDES for run in runs[side]}
    if len(environments) != 1:
        raise RuntimeError(f"the runs saw different environments: {sorted(environments)}")
    return {
        "command": " ".join(RUNNER),
        "commits": commits,
        "environment": environments.pop(),
        "pairs": [{"first": SIDES[i % 2], **{side: runs[side][i]["workloads"] for side in SIDES}}
                  for i in range(PAIRS)],
        "medians": {side: medians(runs[side]) for side in SIDES},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision the change is measured against")
    parser.add_argument("--change", required=True, help="revision of the change")
    parser.add_argument("--out", required=True, type=Path, help="the BENCH_<pr>.json to write")
    ns = parser.parse_args(argv)
    try:
        with tempfile.TemporaryDirectory(prefix="bench_record_") as workdir:
            doc = record(ns.parent, ns.change, Path(workdir))
    except (RuntimeError, ValueError, OSError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    ns.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {ns.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
