"""Acceptance gate: one test per release criterion.

Each test prints a single line naming the criterion, the measured value
against its tolerance, and PASS or FAIL.  Run with ``-s`` to see the
lines for passing tests; ``pytest -v`` shows the verdicts through the
test names either way.
"""

import json
import math
import time

import numpy as np

from altcausal import photonclock, piflink, process, qcore
from altcausal.cli import main


def _verdict(num: int, label: str, ok: bool, detail: str) -> bool:
    print(f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


# ---------------------------------------------------------------------------
# 1. dual process families
# ---------------------------------------------------------------------------

def test_c01_time_reversal_duality():
    start = time.perf_counter()
    omegas = (0.5, 1.0, 2.0)
    worst_clean = 0.0
    skew_devs = []
    for i in range(20):
        rng = np.random.default_rng(1000 + i)
        chan = qcore.random_channel(2, 2, rng)
        base = process.from_channel_order(chan, order="AB")
        fam = process.build_alternating_family(base, omega=omegas[i % 3])
        ts = np.linspace(0.0, 2.0 * fam.period, 64)
        worst_clean = max(worst_clean, process.check_duality(fam, ts))
        bent = process.with_skew_perturbation(fam, 1e-3, seed=i)
        skew_devs.append(process.check_duality(bent, ts))
    elapsed = time.perf_counter() - start
    skew_ok = all(5e-4 <= d <= 2e-3 for d in skew_devs)
    ok = worst_clean < 1e-12 and skew_ok and elapsed < 5.0
    assert _verdict(1, "time-reversal duality", ok,
                    f"worst clean deviation {worst_clean:.2e} < 1e-12, "
                    f"skewed in [{min(skew_devs):.2e}, {max(skew_devs):.2e}] "
                    f"within [5e-4, 2e-3], {elapsed:.2f}s < 5s")


# ---------------------------------------------------------------------------
# 2. process-matrix validity
# ---------------------------------------------------------------------------

def test_c02_process_validity():
    start = time.perf_counter()
    all_valid = True
    for i in range(50):
        rng = np.random.default_rng(2000 + i)
        chan = qcore.random_channel(2, 2, rng)
        for order in ("AB", "BA"):
            w = process.from_channel_order(chan, order=order)
            rep = process.validate_ocb(w)
            all_valid &= rep.valid and rep.tol == 1e-9
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    controls = (qcore.projector(qcore.ket(0)), qcore.projector(qcore.ket(1)),
                qcore.DensityMatrix(np.outer(plus, plus.conj()), (2,)))
    for i in range(10):
        rng = np.random.default_rng(2100 + i)
        model = process.build_quantum_switch(qcore.random_unitary(2, rng),
                                             qcore.random_unitary(2, rng))
        for control in controls:
            w = process.switch_process_matrix(model, control)
            rep = process.validate_ocb(w)
            all_valid &= rep.valid and rep.tol == 1e-9
    elapsed = time.perf_counter() - start
    ok = all_valid and elapsed < 10.0
    assert _verdict(2, "process-matrix validity", ok,
                    f"100 channel-induced + 30 traced-switch matrices valid "
                    f"at tol 1e-9, {elapsed:.2f}s < 10s")


# ---------------------------------------------------------------------------
# 3. switch interference readout
# ---------------------------------------------------------------------------

def _dense_interference(u_a: np.ndarray, u_b: np.ndarray,
                        target: np.ndarray) -> tuple[float, float]:
    # independent 4-dim construction: control |0> runs A then B
    s = (np.kron(u_b @ u_a, np.diag([1.0, 0.0])).astype(complex)
         + np.kron(u_a @ u_b, np.diag([0.0, 1.0])).astype(complex))
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    minus = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2)
    out = s @ np.kron(target, plus)
    d = len(target)
    probs = []
    for v in (plus, minus):
        proj = np.kron(np.eye(d, dtype=complex), np.outer(v, v.conj()))
        probs.append(float(np.real(out.conj() @ proj @ out)))
    return probs[0], probs[1]


def test_c03_switch_order_interference():
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    balanced = qcore.DensityMatrix(np.outer(plus, plus.conj()), (2,))
    target = qcore.projector(qcore.ket(0))

    anti = process.build_quantum_switch(qcore.PAULI_X, qcore.PAULI_Z)
    _, p_minus = process.control_interference_probabilities(anti, target, balanced)
    comm = process.build_quantum_switch(qcore.PAULI_Z, qcore.PAULI_Z)
    p_plus, _ = process.control_interference_probabilities(comm, target, balanced)

    oracle_gap = 0.0
    for i in range(5):
        rng = np.random.default_rng(3000 + i)
        u_a, u_b = qcore.random_unitary(2, rng), qcore.random_unitary(2, rng)
        model = process.build_quantum_switch(u_a, u_b)
        got = process.control_interference_probabilities(model, target, balanced)
        want = _dense_interference(u_a, u_b, np.array([1.0, 0.0], dtype=complex))
        oracle_gap = max(oracle_gap, abs(got[0] - want[0]), abs(got[1] - want[1]))

    ok = (abs(p_minus - 1.0) < 1e-10 and abs(p_plus - 1.0) < 1e-10
          and oracle_gap < 1e-10)
    assert _verdict(3, "switch order interference", ok,
                    f"anticommuting pair p(-) = {p_minus:.12f}, commuting pair "
                    f"p(+) = {p_plus:.12f}, both 1 +/- 1e-10; dense-oracle gap "
                    f"{oracle_gap:.2e}")


# ---------------------------------------------------------------------------
# 4. damped dual generators
# ---------------------------------------------------------------------------

def _unit_hermitian(d: int, rng: np.random.Generator) -> qcore.ComplexOperator:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (g + g.conj().T) / 2
    return qcore.ComplexOperator(h / qcore.spectral_norm(h), (d,))


def test_c04_dual_generator_damping():
    rng = np.random.default_rng(44)
    gen = _unit_hermitian(4, rng)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)

    exact = photonclock.RcpOperator(t_plus=gen, t_minus=gen, epsilon=0.0)
    flat = photonclock.rcp_invariant(exact, psi, np.linspace(0.0, 10.0, 41))
    variation = max(abs(v - flat.values[0]) for v in flat.values)

    ts = np.linspace(0.25, 5.0, 20)
    drifts = {}
    for eps in (0.01, 0.02):
        op = photonclock.RcpOperator(t_plus=gen, t_minus=gen, epsilon=eps)
        rep = photonclock.rcp_invariant(op, psi, ts)
        drifts[eps] = np.array([1.0 - v for v in rep.values])
    positive = bool(np.all(drifts[0.01] > 0.0))
    ordered = bool(np.all(drifts[0.02] > drifts[0.01]))

    ok = variation < 1e-10 and positive and ordered
    assert _verdict(4, "dual generator damping", ok,
                    f"undamped variation {variation:.2e} < 1e-10 on [0, 10]; "
                    f"damping drift positive and pointwise ordered on (0, 5]")


# ---------------------------------------------------------------------------
# 5. photon clock reversibility and its ledger
# ---------------------------------------------------------------------------

def test_c05_photon_clock_ledger():
    box = photonclock.CausalBox(decoherence_per_bounce=0.0, rng_seed=1)
    initial = box.photon
    worst = 1.0
    for k in range(10_000):
        photonclock.bounce(box)
        if k % 2 == 1:
            worst = min(worst, qcore.fidelity(initial, box.photon))

    led = photonclock.TickLedger()
    for _ in range(50):
        led.append(+1, decohered=False)
        led.append(-1, decohered=False)
    balanced = photonclock.classical_time(led)
    led.append(+1, decohered=True)
    bumped = photonclock.classical_time(led)

    ok = abs(worst - 1.0) < 1e-10 and balanced == 0 and bumped == 1
    assert _verdict(5, "photon clock ledger", ok,
                    f"min round-trip fidelity {worst:.12f} over 10^4 bounces; "
                    f"balanced ledger reads {balanced}, one decohered tick "
                    f"raises it to {bumped}")


# ---------------------------------------------------------------------------
# 6. relay chain degradation
# ---------------------------------------------------------------------------

def test_c06_cascade_degrades_with_length():
    start = time.perf_counter()
    sizes = range(2, 7)
    horizon = 36          # >= n^2 for every n in the range
    best = [photonclock.cascade(n, noise=0.0, horizon=horizon).best_fidelity
            for n in sizes]
    elapsed = time.perf_counter() - start
    monotone = all(b1 >= b2 for b1, b2 in zip(best, best[1:]))
    ok = monotone and best[0] > 0.99 and elapsed < 30.0
    assert _verdict(6, "cascade degradation", ok,
                    f"best fidelities {[f'{b:.4f}' for b in best]} non-increasing "
                    f"over n = 2..6, n = 2 gives {best[0]:.4f} > 0.99, "
                    f"{elapsed:.2f}s < 30s")


# ---------------------------------------------------------------------------
# 7. entropy bookkeeping of the echo link
# ---------------------------------------------------------------------------

def test_c07_link_entropy_bookkeeping():
    clean = piflink.run_link(piflink.LinkConfig(slice_count=10_000, rng_seed=5))
    n_bits = 64 * 10_000
    asym = piflink.symmetry_check(clean.joint)
    asym_bound = 3.0 * math.sqrt(0.5 / n_bits)
    clean_ok = (piflink.conservation_check(clean.cycles) == 0.0
                and clean.ledger.delta_s == 0.0
                and clean.ledger.landauer_joules == 0.0
                and asym <= asym_bound)

    lossy = piflink.run_link(piflink.LinkConfig(
        slice_count=10_000, echo_loss_probability=0.25, rng_seed=5))
    # binomial oracle: replay the loss stream the engine drew
    lost = int((np.random.default_rng((5, 2)).random(10_000) < 0.25).sum())
    exact_ok = lossy.ledger.delta_s == 64.0 * lost
    expected = 0.25 * lossy.ledger.i_transmitted
    sigma = 64.0 * math.sqrt(10_000 * 0.25 * 0.75)
    window_ok = abs(lossy.ledger.delta_s - expected) <= 3.0 * sigma

    ok = clean_ok and exact_ok and window_ok
    assert _verdict(7, "link entropy bookkeeping", ok,
                    f"clean run: conservation 0, delta_s 0, landauer 0 J, "
                    f"joint asymmetry {asym:.2e} <= {asym_bound:.2e}; lossy run: "
                    f"delta_s == 64 x {lost} replayed losses, within 3 sigma of "
                    f"a quarter of {lossy.ledger.i_transmitted:.0f} bits")


# ---------------------------------------------------------------------------
# 8. detection: echo comparison vs fire-and-forget
# ---------------------------------------------------------------------------

def test_c08_echo_detection_beats_fire_and_forget():
    pif_exact = 0
    fito_blind = 0
    for seed in range(100):
        base = dict(slice_count=500, bit_flip_forward=0.01, rng_seed=seed)
        pif = piflink.run_link(piflink.LinkConfig(**base))
        fito = piflink.run_link(piflink.LinkConfig(**base, mode=piflink.LinkMode.FITO))
        if (pif.detected_mismatches == pif.injected_forward
                and pif.undetected_corruptions == 0):
            pif_exact += 1
        if fito.undetected_corruptions > 0:
            fito_blind += 1
    ok = pif_exact == 100 and fito_blind >= 95
    assert _verdict(8, "echo detection vs fire-and-forget", ok,
                    f"echo mode caught every injected corruption in "
                    f"{pif_exact}/100 seeds; fire-and-forget left corruption "
                    f"undetected in {fito_blind}/100 (needs >= 95)")


# ---------------------------------------------------------------------------
# 9. capacity doubling
# ---------------------------------------------------------------------------

def test_c09_capacity_doubles():
    cfg = piflink.LinkConfig(slice_count=1, bit_flip_forward=0.11,
                             bit_flip_backward=0.11, rng_seed=17)
    c_one, c_pif = piflink.capacity(cfg)
    ratio_err = abs(c_pif / c_one - 2.0)
    m_one, m_pif = piflink.capacity_monte_carlo(cfg, n_bits=100_000)
    mc_ok = (abs(m_one - c_one) <= 0.05 * c_one
             and abs(m_pif - c_pif) <= 0.05 * c_pif)
    ok = ratio_err < 1e-12 and mc_ok
    assert _verdict(9, "capacity doubling", ok,
                    f"analytic ratio error {ratio_err:.2e} < 1e-12; monte carlo "
                    f"({m_one:.2f}, {m_pif:.2f}) vs analytic "
                    f"({c_one:.2f}, {c_pif:.2f}) within 5%")


# ---------------------------------------------------------------------------
# 10. erasure cost scale
# ---------------------------------------------------------------------------

def test_c10_erasure_cost():
    got = piflink.landauer_cost(1.0, 300.0)
    rel = abs(got - 2.871e-21) / 2.871e-21
    ok = rel < 1e-3
    assert _verdict(10, "erasure cost scale", ok,
                    f"1 bit at 300 K costs {got:.4e} J, within "
                    f"{rel:.2e} of 2.871e-21 J (tol 0.1%)")


# ---------------------------------------------------------------------------
# 11. reflection balance identity
# ---------------------------------------------------------------------------

def test_c11_reflection_balance_exact():
    rng = np.random.default_rng(11)
    failures = 0
    for _ in range(1000):
        alpha = float(rng.random())
        transmitted = float(rng.random() * 1e6)
        reflected, delta_s = photonclock.wf_echo(alpha, transmitted)
        if reflected + delta_s != transmitted:
            failures += 1
    full_r, full_d = photonclock.wf_echo(1.0, 123.456)
    ok = failures == 0 and full_d == 0.0 and full_r == 123.456
    assert _verdict(11, "reflection balance identity", ok,
                    f"reflected + delta_s == transmitted held exactly on "
                    f"{1000 - failures}/1000 random pairs; full reflection "
                    f"leaves delta_s = {full_d}")


# ---------------------------------------------------------------------------
# 12. ordering protocols under shared noise
# ---------------------------------------------------------------------------

def test_c12_order_protocols_under_noise():
    monotone = True
    gaps = {}
    for noise in (0.0, 0.01, 0.05, 0.1):
        rep = process.ac_vs_ico_entropy(qcore.PAULI_X, qcore.PAULI_Z,
                                        noise=noise, steps=20)
        for series in (rep.ac_entropies, rep.ico_entropies):
            steps = np.diff(series)
            monotone &= bool(np.all(steps >= -1e-10))
        gaps[noise] = rep.final_ico - rep.final_ac
    # which protocol ends lower is data, not a requirement
    gap_text = ", ".join(f"noise {k}: {v:+.2e}" for k, v in gaps.items())
    assert _verdict(12, "ordering protocols under noise", monotone,
                    f"both entropy series non-decreasing within 1e-10/step at "
                    f"every noise level; final ico-minus-ac gap as data: {gap_text}")


# ---------------------------------------------------------------------------
# 13. reproducibility of reports
# ---------------------------------------------------------------------------

def test_c13_reports_reproduce_byte_for_byte(tmp_path):
    identical = True
    for args in (["pif", "--slices", "800", "--flip-forward", "0.02",
                  "--echo-loss", "0.1", "--seed", "9"],
                 ["duality", "--points", "33", "--seed", "21"],
                 ["photonclock", "--bounces", "64", "--decoherence", "0.2",
                  "--seed", "8"]):
        a = tmp_path / f"{args[0]}_a.json"
        b = tmp_path / f"{args[0]}_b.json"
        assert main([*args, "--json", str(a)]) == 0
        assert main([*args, "--json", str(b)]) == 0
        identical &= a.read_bytes() == b.read_bytes()
        identical &= json.loads(a.read_text())["experiment"] == args[0]
    assert _verdict(13, "report reproducibility", identical,
                    "three experiments re-run with identical config and seed "
                    "produced byte-identical JSON")
