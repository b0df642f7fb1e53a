"""Command line front end for the simulation experiments.

Every subcommand runs one experiment, prints its headline metrics, and
can write the full report as JSON, CSV, or a standalone SVG plot.  All
runs are seeded, reports carry no timestamps, and JSON keys are sorted,
so the same invocation always produces byte-identical output.

A JSON config file (``--config settings.json``) supplies defaults for
the experiment's own options; explicit flags win over the file.  Exit
status is 0 on success, 1 when an invariant check fails or an input is
rejected, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import photonclock, piflink, process, qcore

_EXPERIMENTS: dict[str, str] = {
    "duality": "forward/backward process family and its time-reversal duality",
    "switch": "quantum switch: coherently controlled operation order, read out on the control",
    "ac-vs-ico": "entropy growth: alternating definite order vs coherent control",
    "photonclock": "bouncing-photon clock, decoherence, and extracted classical time",
    "cascade": "decoherence cascade: excitation hopping down a chain, best revival in a horizon",
    "wfecho": "one-shot echo bookkeeping: reflected share and entropy balance",
    "pif": "verified slice link with a full per-cycle information ledger",
    "fito-vs-pif": "fire-and-forget vs verified link: corruption and erasure cost",
    "capacity": "analytic and Monte Carlo per-cycle link capacities",
    "rcp": "norm of the combined forward/reverse propagator under damping",
}


# ---------------------------------------------------------------------------
# report writers
# ---------------------------------------------------------------------------

def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if value is None or isinstance(value, str):
        return value
    return str(value)


def write_json(report: dict, path: str) -> None:
    text = json.dumps(_jsonable(report), indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def write_csv(report: dict, path: str) -> None:
    series = report.get("series") or {}
    if series:
        keys = sorted(series)
        rows = zip(*(series[k] for k in keys))
    else:
        metrics = report.get("metrics") or {}
        keys = sorted(metrics)
        rows = [tuple(metrics[k] for k in keys)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(keys)
        for row in rows:
            writer.writerow([_jsonable(v) for v in row])


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_X_KEYS = ("t", "step", "cycle", "theta", "p", "alpha")


def _svg_escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def write_svg(report: dict, path: str) -> None:
    """Plot the report series as polylines; no plotting library needed."""
    series = {k: [float(v) for v in vs] for k, vs in (report.get("series") or {}).items()}
    if not series:
        # nothing to plot (e.g. the list report); keep --format svg total
        with open(path, "w") as fh:
            fh.write('<svg xmlns="http://www.w3.org/2000/svg" width="720" height="60" '
                     'viewBox="0 0 720 60" font-family="sans-serif" font-size="14">\n'
                     '<rect width="720" height="60" fill="white"/>\n'
                     f'<text x="16" y="36">{_svg_escape(report.get("experiment", ""))}: '
                     'no series to plot</text>\n</svg>\n')
        return
    x_key = next((k for k in _X_KEYS if k in series), sorted(series)[0])
    xs = series.pop(x_key)
    if not series:
        raise ValueError("series needs at least one y column besides the x axis")
    width, height = 720, 440
    ml, mr, mt, mb = 70, 24, 34, 52
    pw, ph = width - ml - mr, height - mt - mb

    ys_all = [v for vs in series.values() for v in vs]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys_all), max(ys_all)
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

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{ml}" y="20" font-size="14">{_svg_escape(report.get("experiment", ""))}</text>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
    ]
    for i in range(5):
        fx = x_lo + (x_hi - x_lo) * i / 4
        fy = y_lo + (y_hi - y_lo) * i / 4
        parts.append(f'<text x="{px(fx):.1f}" y="{mt + ph + 18}" text-anchor="middle">{fx:.4g}</text>')
        parts.append(f'<text x="{ml - 8}" y="{py(fy) + 4:.1f}" text-anchor="end">{fy:.4g}</text>')
        parts.append(f'<line x1="{ml}" y1="{py(fy):.1f}" x2="{ml + pw}" y2="{py(fy):.1f}" '
                     'stroke="#dddddd" stroke-width="0.5"/>')
    parts.append(f'<text x="{ml + pw / 2:.1f}" y="{height - 14}" text-anchor="middle">'
                 f'{_svg_escape(x_key)}</text>')
    for idx, name in enumerate(sorted(series)):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, series[name])
                       if math.isfinite(y))
        if len(series[name]) == 1:
            parts.append(f'<circle cx="{px(xs[0]):.2f}" cy="{py(series[name][0]):.2f}" '
                         f'r="3" fill="{color}"/>')
        else:
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{ml + pw - 6}" y="{mt + 16 + 16 * idx}" text-anchor="end" '
                     f'fill="{color}">{_svg_escape(name)}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _merged_config(ns: argparse.Namespace, defaults: dict) -> dict:
    cfg = dict(defaults)
    if getattr(ns, "config", None):
        with open(ns.config) as fh:
            loaded = json.load(fh)
        unknown = sorted(set(loaded) - set(defaults))
        if unknown:
            raise ValueError(f"unknown config keys for this experiment: {', '.join(unknown)}")
        cfg.update(loaded)
    for key in defaults:
        flag = getattr(ns, key, None)
        if flag is not None:
            cfg[key] = flag
    return cfg


def _fail(message: str) -> int:
    print(f"invariant violated: {message}", file=sys.stderr)
    return 1


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.6g}"
    return str(value)


# ---------------------------------------------------------------------------
# experiment handlers; each returns (report, exit_code)
# ---------------------------------------------------------------------------

def _run_duality(ns) -> tuple[dict, int]:
    cfg = _merged_config(ns, {
        "dim": 2, "omega": 1.0, "tmax": 2 * math.pi, "points": 25,
        "skew": 0.0, "seed": 7, "phase_mode": "continuous",
    })
    rng = np.random.default_rng(cfg["seed"])
    chan = qcore.random_channel(int(cfg["dim"]), int(cfg["dim"]), rng)
    base = process.from_channel_order(chan, order="AB")
    fam = process.build_alternating_family(base, omega=cfg["omega"],
                                           phase_mode=cfg["phase_mode"])
    if cfg["skew"] > 0:
        fam = process.with_skew_perturbation(fam, cfg["skew"], seed=int(cfg["seed"]) + 1)
    ts = np.linspace(0.0, cfg["tmax"], int(cfg["points"]))
    devs = []
    for t in ts:
        back = fam.backward(float(t)).w.entries
        ref = fam.forward(-float(t)).w.entries.conj().T
        devs.append(qcore.spectral_norm(back - ref))
    validity = process.validate_ocb(fam.forward(0.0))
    period_dev = qcore.spectral_norm(fam.forward(fam.period).w.entries
                                     - fam.forward(0.0).w.entries)
    report = {
        "experiment": "duality",
        "config": cfg,
        "metrics": {
            "max_duality_deviation": max(devs),
            "period": fam.period,
            "period_deviation": period_dev,
            "valid_at_origin": validity.valid,
            "min_eigenvalue": validity.min_eigenvalue,
            "normalization_deviation": validity.normalization_deviation,
        },
        "series": {"t": [float(t) for t in ts], "deviation": devs},
    }
    rc = 0
    if cfg["skew"] == 0.0:
        if max(devs) > 1e-9:
            rc = _fail(f"duality deviation {max(devs):.3e} exceeds 1e-9 with no skew")
        if not validity.valid:
            rc = _fail("forward member at t=0 failed the validity conditions")
        if period_dev > 1e-9:
            rc = _fail(f"family not periodic: deviation {period_dev:.3e} after one period")
    return report, rc


def _run_switch(ns) -> tuple[dict, int]:
    cfg = _merged_config(ns, {"case": "anticommute", "points": 41})
    if cfg["case"] == "anticommute":
        u_a, u_b = qcore.PAULI_X, qcore.PAULI_Z
    elif cfg["case"] == "commute":
        u_a, u_b = qcore.PAULI_Z, qcore.PAULI_Z
    else:
        raise ValueError(f"case must be 'anticommute' or 'commute', got {cfg['case']!r}")
    model = process.build_quantum_switch(u_a, u_b)
    target = qcore.DensityMatrix.maximally_mixed((2,))
    balanced = qcore.DensityMatrix.from_state_vector(
        np.array([1.0, 1.0]) / math.sqrt(2), (2,))
    p_plus, p_minus = process.control_interference_probabilities(model, target, balanced)

    thetas = np.linspace(0.0, math.pi / 2, int(cfg["points"]))
    minus_curve = []
    for th in thetas:
        ctrl = qcore.DensityMatrix.from_state_vector(
            np.array([math.cos(th), math.sin(th)]), (2,))
        minus_curve.append(process.control_interference_probabilities(model, target, ctrl)[1])
    report = {
        "experiment": "switch",
        "config": cfg,
        "metrics": {"p_plus": p_plus, "p_minus": p_minus},
        "series": {"theta": [float(t) for t in thetas], "p_minus": minus_curve},
    }
    rc = 0
    want_minus = cfg["case"] == "anticommute"
    certain = p_minus if want_minus else p_plus
    if abs(certain - 1.0) > 1e-9:
        rc = _fail(f"{cfg['case']} pair should make one outcome certain, got "
                   f"p_plus={p_plus:.12f} p_minus={p_minus:.12f}")
    return report, rc


def _run_ac_vs_ico(ns) -> tuple[dict, int]:
    cfg = _merged_config(ns, {"noise": 0.3, "steps": 6})
    rep = process.ac_vs_ico_entropy(qcore.PAULI_X, qcore.PAULI_Z,
                                    noise=cfg["noise"], steps=int(cfg["steps"]))
    report = {
        "experiment": "ac-vs-ico",
        "config": cfg,
        "metrics": {
            "final_entropy_alternating": rep.final_ac,
            "final_entropy_coherent": rep.final_ico,
            "entropy_gap": rep.final_ac - rep.final_ico,
        },
        "series": {
            "step": list(range(len(rep.ac_entropies))),
            "entropy_alternating": list(rep.ac_entropies),
            "entropy_coherent": list(rep.ico_entropies),
        },
    }
    rc = 0
    for name, seq in (("alternating", rep.ac_entropies), ("coherent", rep.ico_entropies)):
        drops = [b - a for a, b in zip(seq, seq[1:]) if b < a - 1e-9]
        if drops:
            rc = _fail(f"{name} entropy decreased under unital noise: {min(drops):.3e}")
    return report, rc


def _run_photonclock(ns) -> tuple[dict, int]:
    cfg = _merged_config(ns, {"bounces": 16, "decoherence": 0.25, "seed": 3,
                              "tick_seconds": 1.0})
    box = photonclock.CausalBox(decoherence_per_bounce=cfg["decoherence"],
                                rng_seed=int(cfg["seed"]))
    cumulative = []
    for _ in range(int(cfg["bounces"])):
        photonclock.bounce(box)
        cumulative.append(photonclock.classical_time(box.ledger))

    coherent_probe = photonclock.CausalBox(rng_seed=int(cfg["seed"]))
    indiscernible = photonclock.check_nondiscernability(coherent_probe, k_cycles=3)
    breaker = photonclock.CausalBox(rng_seed=int(cfg["seed"]) + 1)
    outcome = photonclock.break_symmetry(
        breaker, photonclock.BoundaryConditions(0.25, 0.25, 0.25, 0.25))

    report = {
        "experiment": "photonclock",
        "config": cfg,
        "metrics": {
            "classical_time": photonclock.classical_time(box.ledger),
            "classical_time_seconds":
                photonclock.classical_time(box.ledger) * cfg["tick_seconds"],
            "bare_classical_time": photonclock.bare_classical_time(box.ledger),
            "traversals": box.ledger.traversal_count,
            "decohered_ticks": box.ledger.decohered_count,
            "coherent_cycles_indiscernible": indiscernible,
            "symmetry_break_outcome": outcome.name,
        },
        "series": {"step": list(range(1, int(cfg["bounces"]) + 1)),
                   "classical_time": cumulative},
    }
    rc = 0
    if any(b < a for a, b in zip(cumulative, cumulative[1:])):
        rc = _fail("extracted classical time decreased while ticks accumulated")
    if not indiscernible:
        rc = _fail("coherent closed cycles were discernible from the initial state")
    return report, rc


def _run_cascade(ns) -> tuple[dict, int]:
    cfg = _merged_config(ns, {"sites": 4, "noise": 0.02, "horizon": 36, "seed": 0})
    rep = photonclock.cascade(int(cfg["sites"]), cfg["noise"], int(cfg["horizon"]),
                              seed=int(cfg["seed"]))
    report = {
        "experiment": "cascade",
        "config": cfg,
        "metrics": {"best_fidelity": rep.best_fidelity, "best_step": rep.best_step},
        "series": {"step": list(range(1, rep.horizon + 1)),
                   "fidelity": list(rep.fidelities)},
    }
    rc = 0
    if not all(-1e-12 <= f <= 1 + 1e-12 for f in rep.fidelities):
        rc = _fail("cascade produced a fidelity outside [0, 1]")
    return report, rc


def _run_wfecho(ns) -> tuple[dict, int]:
    cfg = _merged_config(ns, {"alpha": 0.7, "transmitted": 64.0})
    reflected, delta_s = photonclock.wf_echo(cfg["alpha"], cfg["transmitted"])
    grid = np.linspace(0.0, 1.0, 21)
    split = [photonclock.wf_echo(float(a), cfg["transmitted"]) for a in grid]
    report = {
        "experiment": "wfecho",
        "config": cfg,
        "metrics": {"i_reflected": reflected, "delta_s": delta_s},
        "series": {"alpha": [float(a) for a in grid],
                   "i_reflected": [r for r, _ in split],
                   "delta_s": [d for _, d in split]},
    }
    rc = 0
    if reflected + delta_s != cfg["transmitted"]:
        rc = _fail("echo bookkeeping does not balance exactly")
    return report, rc


def _link_config(cfg: dict, mode: piflink.LinkMode) -> piflink.LinkConfig:
    return piflink.LinkConfig(
        slice_count=int(cfg["slices"]),
        bit_flip_forward=cfg["flip_forward"],
        bit_flip_backward=cfg["flip_backward"],
        echo_loss_probability=cfg["echo_loss"],
        rng_seed=int(cfg["seed"]),
        temperature_kelvin=cfg["temperature"],
        mode=mode,
    )


_LINK_DEFAULTS = {
    "slices": 2000, "flip_forward": 0.0, "flip_backward": 0.0,
    "echo_loss": 0.0, "seed": 11, "temperature": 300.0,
}


def _run_pif(ns) -> tuple[dict, int]:
    cfg = _merged_config(ns, dict(_LINK_DEFAULTS))
    rep = piflink.run_link(_link_config(cfg, piflink.LinkMode.PIF))
    led = rep.ledger
    conservation = piflink.conservation_check(rep.cycles) if len(rep.cycles) > 1 else 0.0
    report = {
        "experiment": "pif",
        "config": cfg,
        "metrics": {
            "i_plus": led.i_plus, "i_minus": led.i_minus,
            "i_transmitted": led.i_transmitted, "i_reflected": led.i_reflected,
            "delta_s": led.delta_s, "h_in": led.h_in, "h_out": led.h_out,
            "landauer_joules": led.landauer_joules,
            "detected_mismatches": rep.detected_mismatches,
            "lost_echoes": rep.lost_echoes,
            "undetected_corruptions": rep.undetected_corruptions,
            "injected_forward": rep.injected_forward,
            "injected_backward": rep.injected_backward,
            "conservation_violation": conservation,
            "joint_asymmetry": piflink.symmetry_check(rep.joint),
            "throughput_slices_per_round_trip": rep.throughput_slices_per_round_trip,
        },
        "series": {
            "cycle": list(range(len(rep.cycles))),
            "i_plus": rep.cycles.i_plus.tolist(),
            "i_minus": rep.cycles.i_minus.tolist(),
            "delta_s": rep.cycles.delta_s.tolist(),
        },
    }
    rc = 0
    if led.delta_s < 0:
        rc = _fail("entropy balance went negative")
    clean = cfg["flip_forward"] == 0 and cfg["flip_backward"] == 0 and cfg["echo_loss"] == 0
    if clean and conservation != 0.0:
        rc = _fail(f"noiseless run must conserve exactly, violation {conservation}")
    if clean and rep.detected_mismatches != 0:
        rc = _fail("false positives on a noiseless link")
    return report, rc


def _run_fito_vs_pif(ns) -> tuple[dict, int]:
    defaults = dict(_LINK_DEFAULTS)
    defaults["flip_forward"] = 0.05
    cfg = _merged_config(ns, defaults)
    pif_rep = piflink.run_link(_link_config(cfg, piflink.LinkMode.PIF))
    fito_rep = piflink.run_link(_link_config(cfg, piflink.LinkMode.FITO))
    report = {
        "experiment": "fito-vs-pif",
        "config": cfg,
        "metrics": {
            "pif_detected_mismatches": pif_rep.detected_mismatches,
            "pif_undetected_corruptions": pif_rep.undetected_corruptions,
            "pif_landauer_joules": pif_rep.ledger.landauer_joules,
            "fito_undetected_corruptions": fito_rep.undetected_corruptions,
            "fito_landauer_joules": fito_rep.ledger.landauer_joules,
            "injected_forward": fito_rep.injected_forward,
        },
        "series": {"cycle": list(range(len(fito_rep.cycles))),
                   "fito_landauer_cumulative":
                       np.cumsum(fito_rep.cycles.landauer_joules).tolist()},
    }
    rc = 0
    if pif_rep.ledger.landauer_joules != 0.0:
        rc = _fail("verified link should never pay an erasure cost")
    if fito_rep.undetected_corruptions != fito_rep.injected_forward:
        rc = _fail("fire-and-forget must leave every injected corruption undetected")
    return report, rc


def _run_capacity(ns) -> tuple[dict, int]:
    cfg = _merged_config(ns, {"flip_forward": 0.11, "flip_backward": 0.11,
                              "n_bits": 100_000, "seed": 17})
    link = piflink.LinkConfig(slice_count=1, bit_flip_forward=cfg["flip_forward"],
                              bit_flip_backward=cfg["flip_backward"],
                              rng_seed=int(cfg["seed"]))
    c_one, c_pif = piflink.capacity(link)
    mc_one, mc_pif = piflink.capacity_monte_carlo(link, n_bits=int(cfg["n_bits"]))
    grid = np.linspace(0.0, 0.5, 26)
    curve_one, curve_pif = [], []
    for p in grid:
        a, b = piflink.capacity(piflink.LinkConfig(
            slice_count=1, bit_flip_forward=float(p), bit_flip_backward=float(p)))
        curve_one.append(a)
        curve_pif.append(b)
    report = {
        "experiment": "capacity",
        "config": cfg,
        "metrics": {
            "c_one_way": c_one, "c_pif": c_pif,
            "c_one_way_monte_carlo": mc_one, "c_pif_monte_carlo": mc_pif,
            "monte_carlo_gap": abs(c_one - mc_one),
        },
        "series": {"p": [float(p) for p in grid],
                   "c_one_way": curve_one, "c_pif": curve_pif},
    }
    rc = 0
    if cfg["flip_forward"] == cfg["flip_backward"] and c_pif != 2.0 * c_one:
        rc = _fail("symmetric link capacity must be exactly twice the one-way capacity")
    return report, rc


def _run_rcp(ns) -> tuple[dict, int]:
    cfg = _merged_config(ns, {"dim": 4, "epsilon": 0.1, "tmax": 4.0,
                              "points": 33, "seed": 5})
    rng = np.random.default_rng(cfg["seed"])
    d = int(cfg["dim"])
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (g + g.conj().T) / 2
    h = h / qcore.spectral_norm(h)
    gen = qcore.ComplexOperator(h, (d,))
    op = photonclock.RcpOperator(t_plus=gen, t_minus=gen, epsilon=cfg["epsilon"])
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    ts = np.linspace(0.0, cfg["tmax"], int(cfg["points"]))
    rep = photonclock.rcp_invariant(op, psi, [float(t) for t in ts])
    analytic = [((1.0 + math.exp(-cfg["epsilon"] * abs(t))) / 2.0) ** 2 for t in ts]
    analytic_dev = max(abs(v - a) for v, a in zip(rep.values, analytic))
    report = {
        "experiment": "rcp",
        "config": cfg,
        "metrics": {
            "constant": rep.constant,
            "drift": rep.drift,
            "analytic_deviation": analytic_dev,
        },
        "series": {"t": [float(t) for t in ts], "norm_squared": list(rep.values),
                   "analytic": analytic},
    }
    rc = 0
    if cfg["epsilon"] == 0.0 and not rep.constant:
        rc = _fail(f"undamped dual pair must conserve the norm, drift {rep.drift:.3e}")
    if analytic_dev > 1e-9:
        rc = _fail(f"norm series deviates from its closed form by {analytic_dev:.3e}")
    return report, rc


def _run_list(ns) -> tuple[dict, int]:
    report = {
        "experiment": "list",
        "config": {},
        "metrics": dict(_EXPERIMENTS),
        "series": {},
    }
    return report, 0


_HANDLERS = {
    "duality": _run_duality,
    "switch": _run_switch,
    "ac-vs-ico": _run_ac_vs_ico,
    "photonclock": _run_photonclock,
    "cascade": _run_cascade,
    "wfecho": _run_wfecho,
    "pif": _run_pif,
    "fito-vs-pif": _run_fito_vs_pif,
    "capacity": _run_capacity,
    "rcp": _run_rcp,
    "list": _run_list,
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--json", metavar="PATH", help="write the report as JSON ('-' for stdout)")
    sub.add_argument("--csv", metavar="PATH", help="write the report series as CSV")
    sub.add_argument("--svg", metavar="PATH", help="plot the report series to an SVG file")
    sub.add_argument("--out", metavar="DIR", help="directory for --format outputs (default .)")
    sub.add_argument("--format", metavar="LIST",
                     help="comma-separated output formats: json,csv,svg")
    sub.add_argument("--config", metavar="PATH", help="JSON file with option defaults")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="altcausal",
        description="seeded, reproducible experiments on round-trip exchange models")
    subs = parser.add_subparsers(dest="command")

    p = subs.add_parser("duality", help=_EXPERIMENTS["duality"])
    p.add_argument("--dim", type=int)
    p.add_argument("--omega", type=float)
    p.add_argument("--tmax", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--skew", type=float, help="size of the deliberate dual-pair offset")
    p.add_argument("--seed", type=int)
    p.add_argument("--phase-mode", choices=("continuous", "discrete"))
    _add_common(p)

    p = subs.add_parser("switch", help=_EXPERIMENTS["switch"])
    p.add_argument("--case", choices=("anticommute", "commute"))
    p.add_argument("--points", type=int)
    _add_common(p)

    p = subs.add_parser("ac-vs-ico", help=_EXPERIMENTS["ac-vs-ico"])
    p.add_argument("--noise", type=float)
    p.add_argument("--steps", type=int)
    _add_common(p)

    p = subs.add_parser("photonclock", help=_EXPERIMENTS["photonclock"])
    p.add_argument("--bounces", type=int)
    p.add_argument("--decoherence", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--tick-seconds", type=float,
                   help="physical duration of one traversal, scales the report only")
    _add_common(p)

    p = subs.add_parser("cascade", help=_EXPERIMENTS["cascade"])
    p.add_argument("--sites", type=int)
    p.add_argument("--noise", type=float)
    p.add_argument("--horizon", type=int)
    p.add_argument("--seed", type=int)
    _add_common(p)

    p = subs.add_parser("wfecho", help=_EXPERIMENTS["wfecho"])
    p.add_argument("--alpha", type=float)
    p.add_argument("--transmitted", type=float)
    _add_common(p)

    for name in ("pif", "fito-vs-pif"):
        p = subs.add_parser(name, help=_EXPERIMENTS[name])
        p.add_argument("--slices", type=int)
        p.add_argument("--flip-forward", type=float)
        p.add_argument("--flip-backward", type=float)
        p.add_argument("--echo-loss", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--temperature", type=float)
        _add_common(p)

    p = subs.add_parser("capacity", help=_EXPERIMENTS["capacity"])
    p.add_argument("--flip-forward", type=float)
    p.add_argument("--flip-backward", type=float)
    p.add_argument("--n-bits", type=int)
    p.add_argument("--seed", type=int)
    _add_common(p)

    p = subs.add_parser("rcp", help=_EXPERIMENTS["rcp"])
    p.add_argument("--dim", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--tmax", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--seed", type=int)
    _add_common(p)

    p = subs.add_parser("list", help="describe the available experiments")
    _add_common(p)

    return parser


def _print_summary(report: dict) -> None:
    print(f"experiment: {report['experiment']}")
    for key in sorted(report.get("metrics", {})):
        print(f"  {key} = {_fmt(report['metrics'][key])}")


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.command is None:
        parser.print_help()
        return 2
    writers = {"json": write_json, "csv": write_csv, "svg": write_svg}
    try:
        report, rc = _HANDLERS[ns.command](ns)
        for fmt, write in writers.items():
            if getattr(ns, fmt, None):
                write(report, getattr(ns, fmt))
        if getattr(ns, "format", None):
            out = getattr(ns, "out", None) or "."
            for fmt in str(ns.format).split(","):
                fmt = fmt.strip()
                if fmt not in writers:
                    raise ValueError(f"unknown output format {fmt!r}; pick from json,csv,svg")
                writers[fmt](report, os.path.join(out, f"{ns.command}.{fmt}"))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if getattr(ns, "json", None) != "-":
        _print_summary(report)
    return rc


if __name__ == "__main__":
    sys.exit(main())
