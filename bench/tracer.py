"""In-process traced run: spans and counts at each layer's public calls.

The tracer wraps, from outside the program, every public function of the
five modules plus the constructors and methods listed in ``EXTRA``, and
rebinds each wrapped name in every module that imported it by name.  A
span is (name, start, end, parent span, invocation id); spans stay in
memory and are written out when the run ends.  A layer's self time is
the time its spans cover minus the time covered by their child spans.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import inspect
import io
import os
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict

import workloads

LAYERS = ("cli", "qcore", "process", "photonclock", "piflink")

# Constructors and methods wrapped besides the public functions.
EXTRA = (
    ("qcore", "DensityMatrix", "__init__"),
    ("qcore", "Channel", "__init__"),
    ("qcore", "ComplexOperator", "min_eigenvalue"),
    ("process", "ProcessMatrix", "__init__"),
    ("process", "ProcessFamily", "forward"),
    ("process", "ProcessFamily", "backward"),
    ("photonclock", "CausalBox", "__init__"),
    ("piflink", "InfoLedger", "__init__"),
    ("piflink", "LinkConfig", "__init__"),
)

# Per-element calls made ~10^5 times per link run: a span each would
# distort the times they sit in, so they are only counted.
COUNT_ONLY = frozenset({"piflink.binary_entropy", "piflink.landauer_cost",
                        "piflink.InfoLedger"})


def _report_bytes(report, path) -> int:
    return 0 if path == "-" else os.path.getsize(path)


# Counters fed from a wrapped call's arguments once it returns.
HOOKS = {
    "qcore.ComplexOperator.min_eigenvalue":
        ("qcore.validated_bytes", lambda op: 16 * op.dim ** 2),   # complex128 n x n
    "photonclock.classical_time":
        ("photonclock.ticks_scanned", lambda ledger: ledger.traversal_count),
    "piflink.run_link": ("piflink.slices", lambda cfg: cfg.slice_count),
    "cli.write_json": ("cli.report_bytes", _report_bytes),
    "cli.write_csv": ("cli.report_bytes", _report_bytes),
    "cli.write_svg": ("cli.report_bytes", _report_bytes),
}


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("us_per_slice"):
        return "us"
    if metric == "qcore.validated_bytes":
        return "bytes_computed"   # 16 n^2 per call, not a measured transfer
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def _public_functions(module) -> list[str]:
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    return [n for n in names
            if inspect.isfunction(getattr(module, n, None))
            and getattr(module, n).__module__ == module.__name__]


class Tracer:
    """Wraps the program's layer boundaries and records spans and counts."""

    def __init__(self):
        self.spans: list[tuple] = []     # (name, start, end, parent, invocation)
        self.invocation = -1
        self._cells: dict[str, list[int]] = {}   # one-element lists: cheaper than a Counter
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    @property
    def counts(self) -> Counter:
        return Counter({name: cell[0] for name, cell in self._cells.items()})

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        calls = self._cells.setdefault(name, [0])
        hook_name, hook = HOOKS.get(name, (None, None))
        hooked = self._cells.setdefault(hook_name, [0]) if hook else None

        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[0] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[0] += 1
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.invocation)
            if hook is not None:
                hooked[0] += hook(*args, **kwargs)
            return result
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, value)

    def install(self, modules: dict) -> None:
        """Wrap the boundaries of ``modules`` (layer name -> module)."""
        for layer, module in modules.items():
            for fname in _public_functions(module):
                original = getattr(module, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for other in modules.values():     # names imported with `from . import`
                    for attr, value in list(vars(other).items()):
                        if value is original:
                            self._set(other, attr, wrapper)
        for layer, cls_name, attr in EXTRA:
            name = f"{layer}.{cls_name}" + ("" if attr == "__init__" else f".{attr}")
            cls = getattr(modules[layer], cls_name, None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is None:   # its metrics then read 0; say why
                print(f"tracer: {name} not found, not traced", file=sys.stderr)
                continue
            self._set(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def layer_times(self) -> tuple[defaultdict, defaultdict]:
        """Total span time per name, and self time per layer."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        total, self_time = defaultdict(float), defaultdict(float)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            total[name] += end - start
            self_time[name.split(".", 1)[0]] += end - start - child
        return total, self_time

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start", "end", "parent", "invocation"])
            for sid, span in enumerate(self.spans):
                out.writerow([sid, *span])


def import_times() -> dict[str, float]:
    """``altcausal.cli`` and ``scipy`` import time, from ``-X importtime``.

    One fresh interpreter.  The scipy figure is the cumulative time of
    every scipy module not nested under another scipy module.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import altcausal.cli"],
                          env=workloads.child_env(), capture_output=True, text=True,
                          timeout=120, check=True)
    rows = []   # (cumulative us, depth, module), children before parents
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((int(cum), depth, name.strip()))
    cli_us = next(cum for cum, _, name in rows if name == "altcausal.cli")
    scipy_us = 0
    enclosing: dict[int, str] = {}   # depth -> module, walking parents first
    for cum, depth, name in reversed(rows):
        enclosing[depth] = name
        parent = enclosing.get(depth - 1, "")
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            scipy_us += cum
    return {"cli.import_s": cli_us / 1e6, "cli.import_scipy_s": scipy_us / 1e6}


def _run_in_process(cli, invs, workdir, tracer=None):
    """Run each invocation through ``cli.main``; return (seconds, hashes, errors)."""
    refs = workloads.references()
    hashes, errors = [], []
    elapsed = 0.0
    for i, args in enumerate(invs):
        out_args, report_path = workloads.output_args(args, workdir, i)
        with contextlib.suppress(FileNotFoundError):
            report_path.unlink()
        if tracer is not None:
            tracer.invocation = i
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(args + out_args)
        except Exception:   # one failing invocation must not end the run
            rc = "exception"
            traceback.print_exc()
        elapsed += time.perf_counter() - start
        _, digest, error = workloads.check_report(rc, report_path, refs.get(workloads.key(args)))
        hashes.append(digest)
        errors.append(error)
    return elapsed, hashes, errors


def traced_run(workload: str, seed: int, small: bool = False) -> dict:
    """One untraced and one traced in-process pass over the workload.

    Returns the per-layer metrics, the tracer, and per invocation the
    report hash and the first error found (None when it passed).
    """
    invs = workloads.invocations(workload, seed, small)
    workdir = workloads.workdir(workload)
    metrics = import_times()
    if str(workloads.SRC) not in sys.path:
        sys.path.insert(0, str(workloads.SRC))
    from altcausal import cli, photonclock, piflink, process, qcore

    # Warm lazy imports and caches, so the untraced pass is not the cold one.
    _run_in_process(cli, workloads.invocations(workload, seed, small=True), workdir)
    plain_s, plain_hashes, plain_errors = _run_in_process(cli, invs, workdir)
    tracer = Tracer()
    tracer.install({"cli": cli, "qcore": qcore, "process": process,
                    "photonclock": photonclock, "piflink": piflink})
    try:
        traced_s, hashes, errors = _run_in_process(cli, invs, workdir, tracer)
    finally:
        tracer.uninstall()
    tracer.write_spans(workdir / "spans.csv")

    for i, (a, b) in enumerate(zip(plain_hashes, hashes)):
        if errors[i] is None and a != b:
            errors[i] = "traced report differs from the untraced one"
    errors = [e or p for e, p in zip(errors, plain_errors)]

    total, self_time = tracer.layer_times()
    n = tracer.counts
    built = n["process.ProcessMatrix"]
    compared = n["process.ProcessFamily.forward"] + n["process.ProcessFamily.backward"]
    slices = n["piflink.slices"]
    metrics.update({
        "cli.build_s": total["cli.build_parser"],
        "cli.write_s": total["cli.write_json"] + total["cli.write_csv"] + total["cli.write_svg"],
        "cli.report_bytes": n["cli.report_bytes"],
        "qcore.validated_constructions": n["qcore.DensityMatrix"] + n["qcore.Channel"],
        "qcore.min_eigenvalue_calls": n["qcore.ComplexOperator.min_eigenvalue"],
        "qcore.min_eigenvalue_s": total["qcore.ComplexOperator.min_eigenvalue"],
        "qcore.validated_bytes": n["qcore.validated_bytes"],
        "qcore.spectral_norm_calls": n["qcore.spectral_norm"],
        "qcore.spectral_norm_s": total["qcore.spectral_norm"],
        "process.members_built": built,
        "process.members_compared": compared,
        "process.useful_member_ratio": compared / built if built else 0.0,
        "photonclock.bounce_calls": n["photonclock.bounce"],
        "photonclock.bounce_s": total["photonclock.bounce"],
        "photonclock.classical_time_calls": n["photonclock.classical_time"],
        "photonclock.classical_time_s": total["photonclock.classical_time"],
        "photonclock.ticks_scanned": n["photonclock.ticks_scanned"],
        "photonclock.cascade_s": total["photonclock.cascade"],
        "photonclock.rcp_invariant_s": total["photonclock.rcp_invariant"],
        "piflink.run_link_s": total["piflink.run_link"],
        "piflink.us_per_slice": 1e6 * total["piflink.run_link"] / slices if slices else 0.0,
        "piflink.ledgers_built": n["piflink.InfoLedger"],
        "piflink.binary_entropy_calls": n["piflink.binary_entropy"],
        "piflink.capacity_monte_carlo_s": total["piflink.capacity_monte_carlo"],
        "piflink.conservation_check_s": total["piflink.conservation_check"],
        "trace.overhead_ratio": traced_s / plain_s,
    })
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_time[layer]
    return {"invocations": invs, "metrics": metrics, "tracer": tracer,
            "hashes": hashes, "errors": errors}
