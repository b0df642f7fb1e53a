"""Command line front end for the simulation experiments.

Every subcommand runs one experiment, prints its headline metrics, and
can write the full report as JSON, CSV, or a standalone SVG plot (``-``
for stdout); every output target is checked before the run.  All
runs are seeded, reports carry no timestamps, and JSON keys are sorted,
so the same invocation always produces byte-identical output.

A JSON config file (``--config settings.json``) supplies defaults for
the experiment's own options; explicit flags win over the file, and
each value is checked against its option.  Reports list their invariant
checks under ``checks``.  Exit status is 0 on success, 1 when a check
fails, an input is rejected or an output cannot be written (stdout
included, with one ``error:`` line on stderr), 2 for usage errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import sys
from collections import Counter, namedtuple


# ---------------------------------------------------------------------------
# report writers
# ---------------------------------------------------------------------------

def _emit(pieces: list[str], path: str) -> None:
    """Write a rendered report's pieces in order to ``path``, or to stdout
    when ``path`` is ``-``.

    The pieces are never joined: the largest extra copy is the encoded
    bytes of one piece.
    """
    if path == "-":
        sys.stdout.writelines(pieces)
    else:
        with open(path, "w", newline="") as fh:
            fh.writelines(pieces)


_SERIES_ITEM = ",\n      "   # what indent=2 puts between the items of a series list
_PREFIX = 1024               # items sampled before a float list's full set is built


def _has_negative_zero(values: list) -> bool:
    return any(v == 0.0 and math.copysign(1.0, v) < 0.0 for v in values)


def _repeated(values: list) -> set | None:
    """The distinct values of ``values`` if fewer than half are distinct, else None.

    A prefix that is at least half distinct settles it without a set of
    the whole list.
    """
    for sample in (values[:_PREFIX], values):
        distinct = set(sample)
        if 2 * len(distinct) >= len(sample):
            return None
    return distinct


def _series_list(values) -> tuple[str, str, str] | None:
    """A ``series`` entry as ``json.dumps(report, indent=2)`` writes it, as
    its opening bracket, body and closing bracket, or None.

    Only a non-empty list of exact ints and floats is rendered here, by
    the C encoder, which ``indent`` rules out for the whole report.  A
    float list that mostly repeats itself is rendered from one repr per
    distinct value instead; ``-0.0`` equals ``0.0`` as a key, so a list
    that holds it stays with the encoder.  NaN and inf are refused.
    """
    if type(values) is not list or not values:
        return None
    kinds = set(map(type, values))
    if not kinds <= {int, float}:
        return None
    if (kinds == {float} and (distinct := _repeated(values)) is not None
            and not (0.0 in distinct and _has_negative_zero(values))):
        for v in distinct:
            if not math.isfinite(v):
                raise ValueError(f"Out of range float values are not JSON compliant: {v!r}")
        reprs = {v: float.__repr__(v) for v in distinct}
        body = _SERIES_ITEM.join(map(reprs.__getitem__, values))
    else:
        body = json.dumps(values, allow_nan=False, separators=(_SERIES_ITEM, ": "))[1:-1]
    return "[\n      ", body, "\n    ]"


def write_json(report: dict, path: str) -> None:
    """Write ``json.dumps(report, indent=2, sort_keys=True, allow_nan=False)``
    and a newline, byte for byte.

    The report is dumped once with an empty ``series``, whose line
    ``  "series": {}`` only the top-level key can write (a nested key sits
    deeper, and no JSON string holds a raw newline).  The entries of
    ``series`` are written in its place, each series list that
    ``_series_list`` renders as its pieces.
    """
    series = report.get("series")
    if type(series) is not dict or not series or not all(type(k) is str for k in series):
        _emit([json.dumps(report, indent=2, sort_keys=True, allow_nan=False), "\n"], path)
        return
    head, tail = json.dumps({**report, "series": {}}, indent=2, sort_keys=True,
                            allow_nan=False).split('\n  "series": {}')
    pieces = [head, '\n  "series": {']
    for i, key in enumerate(sorted(series)):
        pieces += (",\n    " if i else "\n    ", json.dumps(key), ": ")
        rendered = _series_list(series[key])
        if rendered is None:   # any other value, indented one entry deeper
            pieces.append(json.dumps(series[key], indent=2, sort_keys=True,
                                     allow_nan=False).replace("\n", "\n    "))
        else:
            pieces += rendered
    pieces += ("\n  }", tail, "\n")
    _emit(pieces, path)


_CSV_ROWS = 4096   # CSV rows, or SVG polyline points, rendered into one piece


def write_csv(report: dict, path: str) -> None:
    series = report.get("series") or {}
    if series:
        keys = sorted(series)
        rows = zip(*(series[k] for k in keys))
    else:
        metrics = report.get("metrics") or {}
        keys = sorted(metrics)
        rows = [tuple(metrics[k] for k in keys)]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(keys)
    pieces, rows = [], iter(rows)
    while True:
        writer.writerows(itertools.islice(rows, _CSV_ROWS))
        if not buf.tell():
            break
        pieces.append(buf.getvalue())
        buf.seek(0)
        buf.truncate()
    _emit(pieces, path)


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_X_KEYS = ("t", "step", "cycle", "theta", "p", "alpha")


def _svg_escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def write_svg(report: dict, path: str) -> None:
    """Plot the report series as polylines; no plotting library needed.

    The series are read in place, never copied, and each polyline's
    points are rendered in blocks of ``_CSV_ROWS``.
    """
    series = dict(report.get("series") or {})
    if not series:
        # nothing to plot (e.g. the list report); keep --format svg total
        _emit(['<svg xmlns="http://www.w3.org/2000/svg" width="720" height="60" '
               'viewBox="0 0 720 60" font-family="sans-serif" font-size="14">\n'
               '<rect width="720" height="60" fill="white"/>\n'
               f'<text x="16" y="36">{_svg_escape(report.get("experiment", ""))}: '
               'no series to plot</text>\n</svg>\n'], path)
        return
    x_key = next((k for k in _X_KEYS if k in series), sorted(series)[0])
    xs = series.pop(x_key)
    if not series:
        raise ValueError("series needs at least one y column besides the x axis")
    width, height = 720, 440
    ml, mr, mt, mb = 70, 24, 34, 52
    pw, ph = width - ml - mr, height - mt - mb

    def ys_all():
        return map(float, itertools.chain.from_iterable(series.values()))

    x_lo, x_hi = min(map(float, xs)), max(map(float, xs))
    y_lo, y_hi = min(ys_all()), max(ys_all())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x):
        return ml + pw * (x - x_lo) / (x_hi - x_lo)

    def py(y):
        return mt + ph * (1.0 - (y - y_lo) / (y_hi - y_lo))

    pieces = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">\n',
        f'<rect width="{width}" height="{height}" fill="white"/>\n',
        f'<text x="{ml}" y="20" font-size="14">'
        f'{_svg_escape(report.get("experiment", ""))}</text>\n',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>\n',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>\n',
    ]
    for i in range(5):
        fx = x_lo + (x_hi - x_lo) * i / 4
        fy = y_lo + (y_hi - y_lo) * i / 4
        pieces += (f'<text x="{px(fx):.1f}" y="{mt + ph + 18}" text-anchor="middle">'
                   f'{fx:.4g}</text>\n',
                   f'<text x="{ml - 8}" y="{py(fy) + 4:.1f}" text-anchor="end">{fy:.4g}</text>\n',
                   f'<line x1="{ml}" y1="{py(fy):.1f}" x2="{ml + pw}" y2="{py(fy):.1f}" '
                   'stroke="#dddddd" stroke-width="0.5"/>\n')
    pieces.append(f'<text x="{ml + pw / 2:.1f}" y="{height - 14}" text-anchor="middle">'
                  f'{_svg_escape(x_key)}</text>\n')
    for idx, name in enumerate(sorted(series)):
        color = _PALETTE[idx % len(_PALETTE)]
        ys = series[name]
        if len(ys) == 1:
            pieces.append(f'<circle cx="{px(float(xs[0])):.2f}" cy="{py(float(ys[0])):.2f}" '
                          f'r="3" fill="{color}"/>\n')
        else:
            pts = (f"{px(x):.2f},{py(y):.2f}" for x, y in zip(map(float, xs), map(float, ys))
                   if math.isfinite(y))
            blocks = iter(lambda: " ".join(itertools.islice(pts, _CSV_ROWS)), "")
            pieces += ('<polyline points="', next(blocks, ""), *(" " + b for b in blocks),
                       f'" fill="none" stroke="{color}" stroke-width="1.5"/>\n')
        pieces.append(f'<text x="{ml + pw - 6}" y="{mt + 16 + 16 * idx}" text-anchor="end" '
                      f'fill="{color}">{_svg_escape(name)}</text>\n')
    pieces.append("</svg>\n")
    _emit(pieces, path)


# ---------------------------------------------------------------------------
# the experiment registry
# ---------------------------------------------------------------------------

Param = namedtuple("Param", "default low high choices help", defaults=(None, None, (), None))
Param.__doc__ = """One experiment option.  Its type is the type of ``default``.

``low`` and ``high`` bound it inclusively; a size's ``high`` keeps
the run's memory under about 1 GB.
"""

Check = namedtuple("Check", "name value tol ok")
Check.__doc__ = ("One invariant check of a run, ``value`` held to ``tol`` (``None`` for"
                 " a yes/no check); the run fails when ``ok`` is false.")

Experiment = namedtuple("Experiment", "help params run")
Experiment.__doc__ = ("``params`` maps each option to its ``Param``; ``run(config)`` takes a"
                      " checked config and returns ``(metrics, series, checks)``.")


def _within(name: str, value: float, tol: float) -> Check:
    return Check(name, value, tol, not value > tol)


def _checked(name: str, spec: Param, value):
    """``value`` if it meets ``spec``; JSON ints become floats for float options."""
    kind = type(spec.default)
    if kind is float and type(value) is int:
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
    if type(value) is not kind:
        raise ValueError(f"{name} must be {kind.__name__}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if spec.low is not None and value < spec.low:
        raise ValueError(f"{name} must be >= {spec.low}, got {value!r}")
    if spec.high is not None and value > spec.high:
        raise ValueError(f"{name} must be <= {spec.high}, got {value!r}")
    if spec.choices and value not in spec.choices:
        raise ValueError(f"{name} must be one of {', '.join(spec.choices)}, got {value!r}")
    return value


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """One JSON object's pairs as a dict; a repeated key is refused, not overwritten."""
    repeated = [key for key, count in Counter(key for key, _ in pairs).items() if count > 1]
    if repeated:
        raise ValueError(f"repeated config keys: {', '.join(repeated)}")
    return dict(pairs)


def _config(ns: argparse.Namespace, params: dict[str, Param]) -> dict:
    """Defaults, then the --config file, then explicit flags, each value checked."""
    cfg = {key: spec.default for key, spec in params.items()}
    if ns.config is not None:
        with open(ns.config) as fh:
            try:
                loaded = json.load(fh, object_pairs_hook=_unique_keys)
            except RecursionError:
                raise ValueError(f"config {ns.config!r} nests too deeply to read") from None
            except json.JSONDecodeError as exc:
                raise ValueError(f"config {ns.config!r} is not JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ValueError(f"config must be a JSON object, got {type(loaded).__name__}")
        unknown = sorted(set(loaded) - set(params))
        if unknown:
            raise ValueError(f"unknown config keys for this experiment: {', '.join(unknown)}")
        cfg.update(loaded)
    for key in params:
        flag = getattr(ns, key)
        if flag is not None:
            cfg[key] = flag
    return {key: _checked(key, params[key], value) for key, value in cfg.items()}


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


_EXPERIMENTS: dict[str, Experiment] = {}


def _experiment(name: str, help: str, **params: Param):
    """Register the decorated ``run`` as experiment ``name``, in CLI order."""
    def register(run):
        _EXPERIMENTS[name] = Experiment(help, params, run)
        return run
    return register


@_experiment("duality", "forward/backward process family and its time-reversal duality",
             # a report keeps ~160 B per point (series, JSON, CSV and SVG text);
             # a dim 6 run peaks at ~190 MB with its 1296 x 1296 members
             dim=Param(2, low=2, high=6), omega=Param(1.0), tmax=Param(2 * math.pi),
             points=Param(25, low=1, high=4_000_000),
             skew=Param(0.0, low=0, help="size of the deliberate dual-pair offset"),
             seed=Param(7, low=0),
             phase_mode=Param("continuous", choices=("continuous", "discrete")))
def _duality(cfg):
    import numpy as np

    from . import process, qcore

    rng = np.random.default_rng(cfg["seed"])
    chan = qcore.random_channel(cfg["dim"], cfg["dim"], rng)
    base = process.from_channel_order(chan, order="AB")
    fam = process.build_alternating_family(base, omega=cfg["omega"],
                                           phase_mode=cfg["phase_mode"])
    if cfg["skew"] > 0:
        fam = process.with_skew_perturbation(fam, cfg["skew"], seed=cfg["seed"] + 1)
    ts = np.linspace(0.0, cfg["tmax"], cfg["points"])
    devs = process.duality_deviations(fam, ts)
    origin = fam.forward(0.0)
    validity = process.validate_ocb(origin)
    period_dev = qcore.spectral_norm(fam.forward(fam.period).entries - origin.entries)
    metrics = {
        "max_duality_deviation": max(devs),
        "period": fam.period,
        "period_deviation": period_dev,
        "valid_at_origin": validity.valid,
        "min_eigenvalue": validity.min_eigenvalue,
        "normalization_deviation": validity.normalization_deviation,
    }
    checks = []
    if cfg["skew"] == 0.0:   # a skewed family breaks the duality on purpose
        checks = [_within("duality_deviation", max(devs), 1e-9),
                  Check("valid_at_origin", validity.valid, None, validity.valid),
                  _within("period_deviation", period_dev, 1e-9)]
    return metrics, {"t": ts.tolist(), "deviation": devs}, checks


# the pair of qcore operators each case switches, by name
_SWITCH_PAIRS = {"anticommute": ("PAULI_X", "PAULI_Z"), "commute": ("PAULI_Z", "PAULI_Z")}


@_experiment("switch",
             "quantum switch: coherently controlled operation order, read out on the control",
             # a report keeps ~140 B per point
             case=Param("anticommute", choices=tuple(_SWITCH_PAIRS)),
             points=Param(41, low=1, high=3_000_000))
def _switch(cfg):
    import numpy as np

    from . import process, qcore

    model = process.build_quantum_switch(
        *(getattr(qcore, name) for name in _SWITCH_PAIRS[cfg["case"]]))
    target = qcore.DensityMatrix.maximally_mixed((2,))
    balanced = qcore.DensityMatrix.from_state_vector(
        np.array([1.0, 1.0]) / math.sqrt(2), (2,))
    p_plus, p_minus = process.control_interference_probabilities(model, target, balanced)

    thetas = np.linspace(0.0, math.pi / 2, cfg["points"])
    # math.cos and math.sin, as np.cos may differ in the last bit
    controls = np.fromiter(((math.cos(th), math.sin(th)) for th in thetas),
                           dtype=(float, 2), count=len(thetas))
    minus_curve = process.minus_outcome_sweep(model, target, controls)
    # an anticommuting pair makes "minus" certain, a commuting pair "plus"
    certain = p_minus if cfg["case"] == "anticommute" else p_plus
    return ({"p_plus": p_plus, "p_minus": p_minus},
            {"theta": thetas.tolist(), "p_minus": minus_curve},
            [_within("one_outcome_certain", abs(certain - 1.0), 1e-9)])


@_experiment("ac-vs-ico", "entropy growth: alternating definite order vs coherent control",
             # a report keeps ~230 B per step
             noise=Param(0.3), steps=Param(6, low=1, high=3_000_000))
def _ac_vs_ico(cfg):
    from . import process, qcore

    rep = process.ac_vs_ico_entropy(qcore.PAULI_X, qcore.PAULI_Z,
                                    noise=cfg["noise"], steps=cfg["steps"])
    metrics = {
        "final_entropy_alternating": rep.final_ac,
        "final_entropy_coherent": rep.final_ico,
        "entropy_gap": rep.final_ac - rep.final_ico,
    }
    series = {
        "step": list(range(len(rep.ac_entropies))),
        "entropy_alternating": list(rep.ac_entropies),
        "entropy_coherent": list(rep.ico_entropies),
    }
    checks = []   # unital noise never lowers the entropy; value is the worst drop
    for name, seq in (("alternating", rep.ac_entropies), ("coherent", rep.ico_entropies)):
        drops = [b - a for a, b in zip(seq, seq[1:]) if b < a - 1e-9]
        checks.append(Check(f"{name}_entropy_non_decreasing", min(drops, default=0.0), 1e-9,
                            not drops))
    return metrics, series, checks


@_experiment("photonclock", "bouncing-photon clock, decoherence, and extracted classical time",
             bounces=Param(16, low=1, high=1_000_000), decoherence=Param(0.25),
             seed=Param(3, low=0),
             tick_seconds=Param(1.0, low=0,
                                help="physical duration of one traversal, scales the report only"))
def _photonclock(cfg):
    from . import photonclock

    box = photonclock.CausalBox(decoherence_per_bounce=cfg["decoherence"],
                                rng_seed=cfg["seed"])
    photonclock.run_bounces(box, cfg["bounces"])
    cumulative = photonclock.classical_time_series(box.ledger)
    seconds = cumulative[-1] * cfg["tick_seconds"]
    if not math.isfinite(seconds):
        raise ValueError(f"tick_seconds = {cfg['tick_seconds']!r} overflows "
                         f"classical_time_seconds at a classical time of {cumulative[-1]!r}")

    indiscernible = photonclock.check_nondiscernability(photonclock.CausalBox(), k_cycles=3)
    breaker = photonclock.CausalBox(rng_seed=cfg["seed"] + 1)
    outcome = photonclock.break_symmetry(
        breaker, photonclock.BoundaryConditions(0.25, 0.25, 0.25, 0.25))

    metrics = {
        "classical_time": cumulative[-1],
        "classical_time_seconds": seconds,
        "bare_classical_time": photonclock.bare_classical_time(box.ledger),
        "traversals": box.ledger.traversal_count,
        "decohered_ticks": box.ledger.decohered_count,
        "coherent_cycles_indiscernible": indiscernible,
        "symmetry_break_outcome": outcome.name,
    }
    drops = [b - a for a, b in zip(cumulative, cumulative[1:]) if b < a]
    return (metrics, {"step": list(range(1, cfg["bounces"] + 1)), "classical_time": cumulative},
            [Check("classical_time_non_decreasing", min(drops, default=0), 0, not drops),
             Check("coherent_cycles_indiscernible", indiscernible, None, indiscernible)])


@_experiment("cascade",
             "decoherence cascade: excitation hopping down a chain, best revival in a horizon",
             # a report keeps ~230 B per step; 12 is photonclock.MAX_CASCADE_SITES,
             # written out so that the registry loads no layer
             sites=Param(4, low=2, high=12), noise=Param(0.02),
             horizon=Param(36, low=1, high=4_000_000),
             seed=Param(0, low=0))
def _cascade(cfg):
    from . import photonclock

    # --seed stays a flag so a seeded invocation keeps its config echo;
    # the cascade itself is deterministic
    rep = photonclock.cascade(cfg["sites"], cfg["noise"], cfg["horizon"])
    fids = rep.fidelities
    return ({"best_fidelity": rep.best_fidelity, "best_step": rep.best_step},
            {"step": list(range(1, len(fids) + 1)), "fidelity": list(fids)},
            [Check("fidelity_in_unit_interval", [min(fids), max(fids)], 1e-12,
                   all(-1e-12 <= f <= 1 + 1e-12 for f in fids))])


@_experiment("wfecho", "one-shot echo bookkeeping: reflected share and entropy balance",
             alpha=Param(0.7), transmitted=Param(64.0))
def _wfecho(cfg):
    from . import absorber

    reflected, delta_s = absorber.wf_echo(cfg["alpha"], cfg["transmitted"])
    # np.linspace(0, 1, 21) bit for bit: index times step, then the stop itself
    grid = [i * (1 / 20) for i in range(20)] + [1.0]
    split = [absorber.wf_echo(a, cfg["transmitted"]) for a in grid]
    return ({"i_reflected": reflected, "delta_s": delta_s},
            {"alpha": grid,
             "i_reflected": [r for r, _ in split],
             "delta_s": [d for _, d in split]},
            [Check("echo_balance", reflected + delta_s - cfg["transmitted"], 0.0,
                   reflected + delta_s == cfg["transmitted"])])


_LINK = {"slices": Param(2000, low=1, high=1_000_000), "flip_forward": Param(0.0),
         "flip_backward": Param(0.0), "echo_loss": Param(0.0), "seed": Param(11, low=0),
         "temperature": Param(300.0)}


def _link_report(cfg, mode: str):
    """``piflink.run_link`` on the link that ``cfg`` describes, in mode ``mode``
    (a ``piflink.LinkMode`` name)."""
    from . import piflink

    return piflink.run_link(piflink.LinkConfig(
        slice_count=cfg["slices"], bit_flip_forward=cfg["flip_forward"],
        bit_flip_backward=cfg["flip_backward"], echo_loss_probability=cfg["echo_loss"],
        rng_seed=cfg["seed"], temperature_kelvin=cfg["temperature"],
        mode=piflink.LinkMode[mode]))


@_experiment("pif", "verified slice link with a full per-cycle information ledger", **_LINK)
def _pif(cfg):
    from . import piflink

    rep = _link_report(cfg, "PIF")
    led = rep.ledger
    conservation = piflink.conservation_check(rep.cycles) if len(rep.cycles) > 1 else 0.0
    metrics = {
        **vars(led),
        "detected_mismatches": rep.detected_mismatches,
        "lost_echoes": rep.lost_echoes,
        "undetected_corruptions": rep.undetected_corruptions,
        "injected_forward": rep.injected_forward,
        "injected_backward": rep.injected_backward,
        "conservation_violation": conservation,
        "joint_asymmetry": piflink.symmetry_check(rep.joint),
        "throughput_slices_per_round_trip": rep.throughput_slices_per_round_trip,
    }
    series = {
        "cycle": list(range(len(rep.cycles))),
        "i_plus": rep.cycles.i_plus.tolist(),
        "i_minus": rep.cycles.i_minus.tolist(),
        "delta_s": rep.cycles.delta_s.tolist(),
    }
    checks = [Check("delta_s_non_negative", led.delta_s, 0.0, not led.delta_s < 0)]
    if cfg["flip_forward"] == 0 and cfg["flip_backward"] == 0 and cfg["echo_loss"] == 0:
        checks += [Check("conservation_exact", conservation, 0.0, conservation == 0.0),
                   Check("no_false_positives", rep.detected_mismatches, 0,
                         rep.detected_mismatches == 0)]
    return metrics, series, checks


@_experiment("fito-vs-pif", "fire-and-forget vs verified link: corruption and erasure cost",
             **_LINK | {"flip_forward": Param(0.05)})
def _fito_vs_pif(cfg):
    import numpy as np

    pif_rep = _link_report(cfg, "PIF")
    fito_rep = _link_report(cfg, "FITO")
    pif_cost = pif_rep.ledger.landauer_joules
    metrics = {
        "pif_detected_mismatches": pif_rep.detected_mismatches,
        "pif_undetected_corruptions": pif_rep.undetected_corruptions,
        "pif_landauer_joules": pif_cost,
        "fito_undetected_corruptions": fito_rep.undetected_corruptions,
        "fito_landauer_joules": fito_rep.ledger.landauer_joules,
        "injected_forward": fito_rep.injected_forward,
    }
    series = {"cycle": list(range(len(fito_rep.cycles))),
              "fito_landauer_cumulative": np.cumsum(fito_rep.cycles.landauer_joules).tolist()}
    missed, injected = fito_rep.undetected_corruptions, fito_rep.injected_forward
    return metrics, series, [
        Check("pif_erasure_free", pif_cost, 0.0, pif_cost == 0.0),
        Check("fito_leaves_corruptions_undetected", injected - missed, 0, missed == injected)]


@_experiment("capacity", "analytic and Monte Carlo per-cycle link capacities",
             flip_forward=Param(0.11), flip_backward=Param(0.11),
             # a leg keeps 1 B per bit (its input bits) plus ~10 MB of block draws
             n_bits=Param(100_000, low=1, high=50_000_000), seed=Param(17, low=0))
def _capacity(cfg):
    import numpy as np

    from . import piflink

    link = piflink.LinkConfig(slice_count=1, bit_flip_forward=cfg["flip_forward"],
                              bit_flip_backward=cfg["flip_backward"], rng_seed=cfg["seed"])
    c_one, c_pif = piflink.capacity(link)
    mc_one, mc_pif = piflink.capacity_monte_carlo(link, n_bits=cfg["n_bits"])
    grid = np.linspace(0.0, 0.5, 26)
    curve = [piflink.capacity(piflink.LinkConfig(
        slice_count=1, bit_flip_forward=float(p), bit_flip_backward=float(p))) for p in grid]
    metrics = {
        "c_one_way": c_one, "c_pif": c_pif,
        "c_one_way_monte_carlo": mc_one, "c_pif_monte_carlo": mc_pif,
        "monte_carlo_gap": abs(c_one - mc_one),
    }
    checks = []
    if cfg["flip_forward"] == cfg["flip_backward"]:
        checks = [Check("symmetric_capacity_doubles", c_pif - 2.0 * c_one, 0.0,
                        c_pif == 2.0 * c_one)]
    return metrics, {"p": grid.tolist(), "c_one_way": [a for a, _ in curve],
                     "c_pif": [b for _, b in curve]}, checks


@_experiment("rcp", "norm of the combined forward/reverse propagator under damping",
             # ~17 complex d x d matrices live at once (stacks and expm work arrays),
             # ~610 MB at dim 1500; a report keeps ~220 B per point
             dim=Param(4, low=2, high=1_500), epsilon=Param(0.1), tmax=Param(4.0),
             points=Param(33, low=1, high=500_000), seed=Param(5, low=0))
def _rcp(cfg):
    import numpy as np

    from . import photonclock, qcore

    rng = np.random.default_rng(cfg["seed"])
    d = cfg["dim"]
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (g + g.conj().T) / 2
    h = h / qcore.spectral_norm(h)
    gen = qcore.ComplexOperator(h, (d,))
    op = photonclock.RcpOperator(t_plus=gen, t_minus=gen, epsilon=cfg["epsilon"])
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    ts = np.linspace(0.0, cfg["tmax"], cfg["points"])
    rep = photonclock.rcp_invariant(op, psi, ts.tolist())
    analytic = [((1.0 + math.exp(-cfg["epsilon"] * abs(t))) / 2.0) ** 2 for t in ts]
    analytic_dev = max(abs(v - a) for v, a in zip(rep.values, analytic))
    checks = [_within("analytic_deviation", analytic_dev, 1e-9)]
    if cfg["epsilon"] == 0.0:   # only an undamped pair conserves the norm
        checks.insert(0, Check("norm_conserved", rep.drift, rep.tol, rep.constant))
    return ({"constant": rep.constant, "drift": rep.drift, "analytic_deviation": analytic_dev},
            {"t": ts.tolist(), "norm_squared": list(rep.values), "analytic": analytic},
            checks)


@_experiment("list", "describe the available experiments")
def _list(cfg):
    return {name: exp.help for name, exp in _EXPERIMENTS.items() if name != "list"}, {}, []


# ---------------------------------------------------------------------------
# argument parsing and the entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="altcausal",
        description="seeded, reproducible experiments on round-trip exchange models")
    subs = parser.add_subparsers(dest="command")
    for name, exp in _EXPERIMENTS.items():
        p = subs.add_parser(name, help=exp.help)
        for key, spec in exp.params.items():
            p.add_argument("--" + key.replace("_", "-"), type=type(spec.default),
                           choices=spec.choices or None, help=spec.help)
        p.add_argument("--json", metavar="PATH", help="write the report as JSON ('-' for stdout)")
        p.add_argument("--csv", metavar="PATH",
                       help="write the report series as CSV ('-' for stdout)")
        p.add_argument("--svg", metavar="PATH",
                       help="plot the report series as SVG ('-' for stdout)")
        p.add_argument("--out", metavar="DIR", help="directory for --format outputs (default .)")
        p.add_argument("--format", metavar="LIST",
                       help="comma-separated output formats: json,csv,svg")
        p.add_argument("--config", metavar="PATH", help="JSON file with option defaults")
    return parser


def _targets(ns: argparse.Namespace, formats) -> list[tuple[str, str]]:
    """Every (format, path) the run writes, from --json/--csv/--svg and --out/--format.

    Refuses a missing directory and two targets that write to the same
    place, stdout under a file name included, so a bad target stops the
    run before any file is written.  JSON comes first, as only its
    writer refuses a report.
    """
    targets = [(fmt, getattr(ns, fmt)) for fmt in formats if getattr(ns, fmt) is not None]
    if ns.out is not None and ns.format is None:
        raise ValueError("--out needs --format")
    for fmt in ns.format.split(",") if ns.format is not None else ():
        fmt = fmt.strip()
        if fmt not in formats:
            raise ValueError(f"unknown output format {fmt!r}; pick from {','.join(formats)}")
        targets.append((fmt, os.path.join(ns.out or ".", f"{ns.command}.{fmt}")))
    for _, path in targets:
        directory = os.path.dirname(path) or "."
        if path != "-" and not os.path.isdir(directory):
            raise ValueError(f"output directory {directory!r} does not exist")
    places = [path if path == "-" else os.path.realpath(path) for _, path in targets]
    repeated = [place for place in places if places.count(place) > 1]
    if repeated:
        raise ValueError(f"two outputs write to {repeated[0]!r}")
    if "-" in places:
        if sys.stdout is None:   # its descriptor was closed when Python started
            raise ValueError("'-' writes to stdout, which is closed")
        try:
            stdout = os.fstat(sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):   # no descriptor, as under a capture
            stdout = None
        for _, path in targets:
            if (stdout and path != "-" and os.path.exists(path)
                    and os.path.samestat(os.stat(path), stdout)):
                raise ValueError(f"two outputs write to stdout: '-' and {path!r}")
    return sorted(targets, key=lambda target: target[0] != "json")


_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _say(line: str) -> None:
    """Write ``line`` to stderr after what stdout holds, flushing both.  A
    stream Python could not open (``None``) or that fails drops the text:
    nothing is left to report that on, and the exit code does."""
    for stream, text in ((sys.stdout, ""), (sys.stderr, line + "\n")):
        if stream is not None:
            try:
                stream.write(text)
                stream.flush()
            except (OSError, ValueError):
                pass


def main(argv=None) -> int:
    # The last bits of the larger decompositions depend on the BLAS thread
    # count, which BLAS reads once, when numpy loads: pin one thread, over
    # the caller's setting, so that the same invocation writes the same
    # report everywhere.  Once numpy is loaded it is too late to pin.
    if "numpy" not in sys.modules:
        os.environ.update(dict.fromkeys(_BLAS_THREAD_VARIABLES, "1"))
    parser = build_parser()
    ns = parser.parse_args(argv)
    # looked up per call, so a writer rebound on the module is the one used
    writers = {"json": write_json, "csv": write_csv, "svg": write_svg}
    code = 2
    try:
        if ns.command is None:
            print(parser.format_help(), end="")
        else:
            for option in (*writers, "out", "format", "config"):
                if getattr(ns, option) == "":
                    raise ValueError(f"--{option} needs a value, got an empty one")
            targets = _targets(ns, writers)
            cfg = _config(ns, _EXPERIMENTS[ns.command].params)
            metrics, series, checks = _EXPERIMENTS[ns.command].run(cfg)
            failed = [c for c in checks if not c.ok]
            for c in failed:
                _say(f"invariant violated: {c.name} = {_fmt(c.value)} (tol {_fmt(c.tol)})")
            code = 1 if failed else 0
            report = {"experiment": ns.command, "config": cfg, "metrics": metrics,
                      "series": series, "checks": [c._asdict() for c in checks]}
            for fmt, path in targets:
                writers[fmt](report, path)
            if all(path != "-" for _, path in targets):
                print(f"experiment: {ns.command}")
                for key in sorted(metrics):
                    print(f"  {key} = {_fmt(metrics[key])}")
        if sys.stdout is not None:   # a buffered write fails here, as an unbuffered one did
            sys.stdout.flush()
    except (ValueError, OSError) as exc:
        _say(f"error: {exc}")
        return 1
    return code


def run() -> None:
    """The console entry point: ``main`` has closed every report file and
    flushed stdout and stderr, so ``os._exit`` skips the teardown of numpy,
    scipy and the rest.  argparse's ``SystemExit`` (``--help``, a usage
    error) and an unexpected exception propagate to Python's own exit."""
    os._exit(main())


if __name__ == "__main__":
    run()
