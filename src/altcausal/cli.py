"""Command line front end for the simulation experiments.

Every subcommand runs one experiment, prints its headline metrics, and
can write the full report as JSON, CSV, or a standalone SVG plot (``-``
for stdout).  Every output target is checked before the run, and the
report once, before the first target; the writers take that verdict (a
writer given a plain report checks it first).  Runs are seeded, reports
carry no timestamps, and JSON keys are sorted, so the same invocation
always produces byte-identical output.

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
import operator
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
_CSV_ROWS = 4096   # series values read, CSV rows or SVG polyline points rendered, per block


def _blocks(values):
    """A series (a list, tuple, range or 1-D int64 or float64 numpy column) as
    lists of at most ``_CSV_ROWS`` builtin values, in order."""
    to_list = getattr(type(values), "tolist", list)
    for start in range(0, len(values), _CSV_ROWS):
        yield to_list(values[start:start + _CSV_ROWS])


def _block_kinds(block: list) -> set[type]:
    """The types of the values in a block from ``_blocks``, held to the series
    contract of every writer: a series holds only ints and finite floats,
    what strict JSON holds.  The floats take one ``sum``, and a per-value
    pass only when it is not finite; ints stay out of it, as an int past the
    float range is a valid series value (an SVG plot alone refuses one)."""
    kinds = set(map(type, block))
    if not kinds <= {int, float}:
        raise ValueError("a series holds only ints and finite floats, not "
                         + ", ".join(sorted(kind.__name__ for kind in kinds - {int, float})))
    if float in kinds:
        floats = block if kinds == {float} else [v for v in block if type(v) is float]
        if not math.isfinite(sum(floats)):
            for v in floats:
                if not math.isfinite(v):
                    raise ValueError(f"a series holds only ints and finite floats, not {v!r}")
    return kinds


def _series_floats(values) -> bool:
    """Whether a series holds only floats, once it is held to the contract:
    a ``range`` or a 1-D int64 column by its type, a 1-D float64 column by
    its least and greatest values being finite, and any other series (or a
    float column empty or not finite) block by block by ``_block_kinds``."""
    kind = getattr(getattr(values, "dtype", None), "name", None)
    if type(values) is range or kind == "int64" and values.ndim == 1:
        return False
    if (kind == "float64" and values.ndim == 1 and len(values)
            and math.isfinite(values.min()) and math.isfinite(values.max())):
        return True
    return set().union(*map(_block_kinds, _blocks(values))) == {float}


_WIDTH, _HEIGHT, _ML, _MT = 720, 440, 70, 34       # an SVG plot's size, left and top margins
_PW, _PH = _WIDTH - _ML - 24, _HEIGHT - _MT - 52   # its axes' box, in a 24 right, 52 bottom margin
_X_KEYS = ("t", "step", "cycle", "theta", "p", "alpha")


def _plot_frame(series: dict):
    """The x key of the SVG plot of a non-empty ``series`` and its x and y
    ranges as plotted, from each column's own least and greatest values,
    or the plot's refusal: no y column, an empty axis, or values, a span
    or a scale past the float range."""
    x_key = next((k for k in _X_KEYS if k in series), sorted(series)[0])
    if len(series) == 1:
        raise ValueError("series needs at least one y column besides the x axis")
    spans = []
    for axis in ([series[x_key]], [values for key, values in series.items() if key != x_key]):
        ends = [(v.min(), v.max()) if hasattr(v, "dtype") else (min(v), max(v))
                for v in axis if len(v)]
        if not ends:
            raise ValueError("an SVG plot needs at least one value on each axis")
        try:
            spans.append((min(float(lo) for lo, _ in ends), max(float(hi) for _, hi in ends)))
        except OverflowError:
            raise ValueError("an SVG plot needs every value in the float range") from None
    (x_lo, x_hi), (y_lo, y_hi) = spans
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    # the coordinates and tick labels reach at most _PW times the x span
    # and 4 times the y span; past the float range they would write inf and nan
    if not math.isfinite(max(_PW * (x_hi - x_lo), 4 * (y_hi - y_lo))):
        raise ValueError("an SVG plot needs every value in the float range")
    return x_key, (x_lo, x_hi), (y_lo, y_hi)


_Verdict = namedtuple("_Verdict", "report json floats frame")


def _check_report(report, svg: bool = False) -> _Verdict:
    """Check ``report`` once for every writer; ``main``'s ``_Verdict`` on
    one is returned as it is.  ``series`` must be a dict of str keys, each
    to a list, tuple, ``range`` or numpy column.  Its ``json`` dump with an
    empty ``series`` refuses a NaN or infinite value, ``_series_floats``
    holds each series to the contract and names the ``floats`` series, and
    with ``svg`` the plot's refusals give its ``frame`` (else ``None``)."""
    if isinstance(report, _Verdict):
        return report
    series = report.get("series", {})
    if not isinstance(series, dict):
        raise ValueError(f"series must be a dict, not {type(series).__name__}")
    for key, values in series.items():
        if type(key) is not str:
            raise ValueError(f"a series key must be a str, not {key!r}")
        if not isinstance(values, (list, tuple, range)) and not getattr(values, "ndim", 0):
            raise ValueError(f"series {key!r} must be a list, tuple, range or numpy column, "
                             f"not {type(values).__name__}")
    dump = json.dumps({**report, "series": {}} if series else report, indent=2,
                      sort_keys=True, allow_nan=False)
    floats = {key for key, values in series.items() if _series_floats(values)}
    return _Verdict(report, dump, floats, _plot_frame(series) if svg and series else None)


def _block_reprs(block: list, floats: bool):
    """Each value of a block from ``_blocks`` as JSON and ``csv.writer`` write
    it, its ``repr``.  A block of a series of ``floats`` only that mostly
    repeats itself takes one ``float.__repr__`` per distinct value, unless
    one of its zeros is ``-0.0``, which equals ``0.0`` as a key."""
    if (floats and 2 * len(distinct := set(block)) < len(block)
            and not (0.0 in distinct and -1.0 in map(math.copysign, itertools.repeat(1.0),
                                                     itertools.filterfalse(None, block)))):
        # the block holds at least three values, so itemgetter gives a tuple
        return operator.itemgetter(*block)({v: float.__repr__(v) for v in distinct})
    return map(repr, block)


def _series_list(values, floats: bool) -> list[str]:
    """A ``series`` entry as ``json.dumps(report, indent=2)`` writes it, as
    its pieces: one per block, from ``_block_reprs``."""
    pieces = ["[\n      "]
    for block in _blocks(values):
        pieces += (_SERIES_ITEM.join(_block_reprs(block, floats)), _SERIES_ITEM)
    return pieces[:-1] + ["\n    ]"] if len(pieces) > 1 else ["[]"]


def write_json(report, path: str) -> None:
    """Write ``json.dumps(report, indent=2, sort_keys=True, allow_nan=False)``
    and a newline, byte for byte.

    ``_check_report`` dumps the report with an empty ``series``, whose line
    ``  "series": {}`` only the top-level key can write (a nested key sits
    deeper, and no JSON string holds a raw newline).  The entries of
    ``series`` (str keys, each a series that ``_blocks`` reads) are written
    in its place as ``_series_list`` renders them.
    """
    report, dump, floats, _ = _check_report(report)
    series = report.get("series")
    if not series:
        _emit([dump, "\n"], path)
        return
    head, tail = dump.split('\n  "series": {}')
    pieces = [head, '\n  "series": {']
    for i, key in enumerate(sorted(series)):
        pieces += (",\n    " if i else "\n    ", json.dumps(key), ": ",
                   *_series_list(series[key], key in floats))
    pieces += ("\n  }", tail, "\n")
    _emit(pieces, path)


def write_csv(report, path: str) -> None:
    """``csv.writer`` writes the header, and the metrics row of a report
    without series (``list``).  Series rows are rendered a block at a time
    from the columns' blocks, each cell as ``_block_reprs`` gives it, which
    is how ``csv.writer`` writes an int or a finite float.  The rows stop at
    the shortest column."""
    report, _, floats, _ = _check_report(report)
    series = report.get("series")
    buf = io.StringIO()
    writer = csv.writer(buf)
    if not series:
        metrics = report.get("metrics") or {}
        writer.writerows([sorted(metrics), [metrics[k] for k in sorted(metrics)]])
        _emit([buf.getvalue()], path)
        return
    writer.writerow(keys := sorted(series))
    pieces = [buf.getvalue()]
    kinds = [key in floats for key in keys]
    for blocks in zip(*(_blocks(series[k]) for k in keys)):
        pieces.append("\r\n".join([*map(",".join, zip(*map(_block_reprs, blocks, kinds))), ""]))
    _emit(pieces, path)


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _svg_escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def write_svg(report, path: str) -> None:
    """Plot the report series as polylines; no plotting library needed.

    Each column is read once, through ``_blocks``, for its points, and never
    copied whole; ``_check_report`` gives the plot's frame.  Each x block is
    formatted once for every polyline, and each polyline is rendered as one
    piece per block.
    """
    report, _, _, frame = _check_report(report, svg=True)
    series = dict(report.get("series") or {})
    if not series:
        # nothing to plot (e.g. the list report); keep --format svg total
        _emit(['<svg xmlns="http://www.w3.org/2000/svg" width="720" height="60" '
               'viewBox="0 0 720 60" font-family="sans-serif" font-size="14">\n'
               '<rect width="720" height="60" fill="white"/>\n'
               f'<text x="16" y="36">{_svg_escape(report.get("experiment", ""))}: '
               'no series to plot</text>\n</svg>\n'], path)
        return
    x_key, (x_lo, x_hi), (y_lo, y_hi) = frame
    xs = series.pop(x_key)
    width, height, ml, mt, pw, ph = _WIDTH, _HEIGHT, _ML, _MT, _PW, _PH

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
    # each line's blocks of points; a ragged column stops where the
    # shorter of it and x ends
    lines = {name: [] for name, ys in series.items() if len(ys) != 1}
    y_blocks = {name: _blocks(series[name]) for name in lines}
    for block in _blocks(xs):
        xf = [f"{px(x):.2f}," for x in block]
        for name, line in lines.items():
            points = " ".join([x + f"{py(y):.2f}" for x, y in zip(xf, next(y_blocks[name], ()))])
            if points:
                line.append(" " + points if line else points)
    for idx, name in enumerate(sorted(series)):
        color = _PALETTE[idx % len(_PALETTE)]
        if name in lines:
            pieces += ('<polyline points="', *lines[name],
                       f'" fill="none" stroke="{color}" stroke-width="1.5"/>\n')
        else:
            x, y = next(_blocks(xs))[0], next(_blocks(series[name]))[0]
            pieces.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="{color}"/>\n')
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


def _non_decreasing(name: str, seq, tol) -> Check:
    """Fails if a step of ``seq`` falls past ``tol``, valued at the worst, else at 0."""
    values, after = itertools.tee(itertools.chain.from_iterable(_blocks(seq)))
    worst = min(map(operator.sub, itertools.islice(after, 1, None), values), default=0)
    fell = worst < -tol
    return Check(f"{name}_non_decreasing", worst if fell else type(tol)(0), tol, not fell)


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
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ValueError(f"config {ns.config!r} is not JSON: {exc}") from None
            except ValueError as exc:   # a repeated key, or an int past Python's digit limit
                if "integer string conversion" not in str(exc):
                    raise
                raise ValueError(f"config {ns.config!r} holds an int of more than "
                                 f"{sys.get_int_max_str_digits()} digits") from None
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
             # a --json run peaks ~50 B per point above a 1,000-point one;
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
    return metrics, {"t": ts, "deviation": devs}, checks


# the pair of qcore operators each case switches, by name
_SWITCH_PAIRS = {"anticommute": ("PAULI_X", "PAULI_Z"), "commute": ("PAULI_Z", "PAULI_Z")}


@_experiment("switch",
             "quantum switch: coherently controlled operation order, read out on the control",
             # a --json run peaks ~65 B per point above a 1,000-point one
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
            {"theta": thetas, "p_minus": minus_curve},
            [_within("one_outcome_certain", abs(certain - 1.0), 1e-9)])


@_experiment("ac-vs-ico", "entropy growth: alternating definite order vs coherent control",
             # a --json run peaks ~80 B per step above a 1,000-step one
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
        "step": range(len(rep.ac_entropies)),
        "entropy_alternating": rep.ac_entropies,
        "entropy_coherent": rep.ico_entropies,
    }
    # unital noise never lowers the entropy
    return metrics, series, [_non_decreasing(f"{name}_entropy", seq, 1e-9) for name, seq in
                             (("alternating", rep.ac_entropies), ("coherent", rep.ico_entropies))]


@_experiment("photonclock", "bouncing-photon clock, decoherence, and extracted classical time",
             bounces=Param(16, low=1, high=1_000_000), decoherence=Param(0.25),
             seed=Param(3, low=0),
             tick_seconds=Param(1.0, low=0,
                                help="physical duration of one traversal, scales the report only"))
def _photonclock(cfg):
    from . import photonclock

    ledger = photonclock.tick_ledger(cfg["bounces"], cfg["decoherence"], cfg["seed"])
    cumulative = photonclock.classical_time_series(ledger)
    final = int(cumulative[-1])
    seconds = final * cfg["tick_seconds"]
    if not math.isfinite(seconds):
        raise ValueError(f"tick_seconds = {cfg['tick_seconds']!r} overflows "
                         f"classical_time_seconds at a classical time of {final!r}")

    indiscernible = photonclock.check_nondiscernability(photonclock.CausalBox(), k_cycles=3)
    breaker = photonclock.CausalBox(rng_seed=cfg["seed"] + 1)
    outcome = photonclock.break_symmetry(
        breaker, photonclock.BoundaryConditions(0.25, 0.25, 0.25, 0.25))

    metrics = {
        "classical_time": final,
        "classical_time_seconds": seconds,
        "bare_classical_time": photonclock.bare_classical_time(ledger),
        "traversals": ledger.traversal_count,
        "decohered_ticks": ledger.decohered_count,
        "coherent_cycles_indiscernible": indiscernible,
        "symmetry_break_outcome": outcome.name,
    }
    return (metrics, {"step": range(1, cfg["bounces"] + 1), "classical_time": cumulative},
            [_non_decreasing("classical_time", cumulative, 0),
             Check("coherent_cycles_indiscernible", indiscernible, None, indiscernible)])


@_experiment("cascade",
             "decoherence cascade: excitation hopping down a chain, best revival in a horizon",
             # a --json run peaks ~50 B per step above a 1,000-step one; 12 is the
             # layer's MAX_CASCADE_SITES, written out so that the registry loads no layer
             sites=Param(4, low=2, high=12), noise=Param(0.02),
             horizon=Param(36, low=1, high=4_000_000),
             seed=Param(0, low=0))
def _cascade(cfg):
    from . import photonclock

    # --seed stays a flag so a seeded invocation keeps its config echo;
    # the cascade itself is deterministic
    rep = photonclock.cascade(cfg["sites"], cfg["noise"], cfg["horizon"])
    fids = rep.fidelities
    lo, hi = float(fids.min()), float(fids.max())
    return ({"best_fidelity": rep.best_fidelity, "best_step": rep.best_step},
            {"step": range(1, len(fids) + 1), "fidelity": fids},
            [Check("fidelity_in_unit_interval", [lo, hi], 1e-12,
                   -1e-12 <= lo and hi <= 1 + 1e-12)])


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


def _link_config(cfg):
    """The ``piflink.LinkConfig`` of the link that ``cfg`` describes, in PIF mode."""
    from . import piflink

    return piflink.LinkConfig(
        slice_count=cfg["slices"], bit_flip_forward=cfg["flip_forward"],
        bit_flip_backward=cfg["flip_backward"], echo_loss_probability=cfg["echo_loss"],
        rng_seed=cfg["seed"], temperature_kelvin=cfg["temperature"])


@_experiment("pif", "verified slice link with a full per-cycle information ledger", **_LINK)
def _pif(cfg):
    from . import piflink

    rep = piflink.run_link(_link_config(cfg))
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
        "cycle": range(len(rep.cycles)),
        "i_plus": rep.cycles.i_plus,
        "i_minus": rep.cycles.i_minus,
        "delta_s": rep.cycles.delta_s,
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

    from . import piflink

    pif_rep, fito_rep = piflink.run_matched(_link_config(cfg))
    pif_cost = pif_rep.ledger.landauer_joules
    metrics = {
        "pif_detected_mismatches": pif_rep.detected_mismatches,
        "pif_undetected_corruptions": pif_rep.undetected_corruptions,
        "pif_landauer_joules": pif_cost,
        "fito_undetected_corruptions": fito_rep.undetected_corruptions,
        "fito_landauer_joules": fito_rep.ledger.landauer_joules,
        "injected_forward": fito_rep.injected_forward,
    }
    series = {"cycle": range(len(fito_rep.cycles)),
              "fito_landauer_cumulative": np.cumsum(fito_rep.cycles.landauer_joules)}
    missed, injected = fito_rep.undetected_corruptions, fito_rep.injected_forward
    return metrics, series, [
        Check("pif_erasure_free", pif_cost, 0.0, pif_cost == 0.0),
        Check("fito_leaves_corruptions_undetected", injected - missed, 0, missed == injected)]


@_experiment("capacity", "analytic and Monte Carlo per-cycle link capacities",
             flip_forward=Param(0.11), flip_backward=Param(0.11),
             # a leg holds one block of bits and one of flips (~10 MB) whatever n_bits is,
             # so this ceiling bounds the run's time (about 1 s), not its memory
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
    return metrics, {"p": grid, "c_one_way": [a for a, _ in curve],
                     "c_pif": [b for _, b in curve]}, checks


@_experiment("rcp", "norm of the combined forward/reverse propagator under damping",
             # ~17 complex d x d matrices live at once (stacks and expm work arrays),
             # ~610 MB at dim 1500; a --json run peaks ~130 B per point above 1,000 points
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
    rep = photonclock.rcp_invariant(op, psi, ts)
    analytic = [((1.0 + math.exp(-cfg["epsilon"] * abs(t))) / 2.0) ** 2 for t in ts]
    analytic_dev = float(max(abs(v - a) for v, a in zip(rep.values, analytic)))
    checks = [_within("analytic_deviation", analytic_dev, 1e-9)]
    if cfg["epsilon"] == 0.0:   # only an undamped pair conserves the norm
        checks.insert(0, Check("norm_conserved", rep.drift, rep.tol, rep.constant))
    return ({"constant": rep.constant, "drift": rep.drift, "analytic_deviation": analytic_dev},
            {"t": ts, "norm_squared": rep.values, "analytic": analytic},
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

    Refuses a missing directory, a target that is a directory, and two
    targets that write to the same file under any names, hard links and
    stdout included, so a bad target stops the run before any file is written.
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
            state = "is not a directory" if os.path.exists(directory) else "does not exist"
            raise ValueError(f"output directory {directory!r} {state}")
        if path != "-" and os.path.isdir(path):
            raise ValueError(f"output {path!r} is a directory")
    if sys.stdout is None and any(path == "-" for _, path in targets):
        raise ValueError("'-' writes to stdout, which is closed")   # fd 1 was closed at start
    owners = {}   # the (device, inode) os.path.samestat compares, else a new file's real path
    for _, path in targets:
        try:
            found = os.fstat(sys.stdout.fileno()) if path == "-" else os.stat(path)
            place = found.st_dev, found.st_ino
        except (AttributeError, OSError, ValueError):   # no descriptor, as under a capture
            place = path if path == "-" else os.path.realpath(path)
        if place in owners:
            first = owners[place]
            where = "stdout" if "-" in (first, path) else "one file"
            raise ValueError(f"two outputs write to {path!r}" if first == path else
                             f"two outputs write to {where}: {first!r} and {path!r}")
        owners[place] = path
    return targets


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
            # one check before the first target and the summary, whatever the targets
            verdict = _check_report(report, svg=any(fmt == "svg" for fmt, _ in targets))
            for fmt, path in targets:
                writers[fmt](verdict, path)
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
