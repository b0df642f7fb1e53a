import base64
import math
import random
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from altcausal.qcore import (
    PAULI_X,
    ComplexOperator,
    DensityMatrix,
    fidelity,
    ket,
    projector,
    random_density_matrix,
)
from altcausal.photonclock import (
    BoundaryConditions,
    BreakOutcome,
    CASCADE_STEP,
    CausalBox,
    CascadeReport,
    MAX_CASCADE_SITES,
    RcpOperator,
    TickLedger,
    _event_draws,
    bare_classical_time,
    bounce,
    break_symmetry,
    cascade,
    check_nondiscernability,
    classical_time,
    classical_time_series,
    rcp_invariant,
    run_bounces,
    wf_echo,
)
from altcausal import photonclock
from altcausal.piflink import InfoLedger


def _ledger(seq):
    led = TickLedger()
    for value, decohered in seq:
        led.append(value, decohered)
    return led


# ---------------------------------------------------------------------------
# tick ledger and classical time
# ---------------------------------------------------------------------------

def test_ledger_rejects_non_unit_ticks():
    led = TickLedger()
    for bad in (0, 2, -3):
        with pytest.raises(ValueError):
            led.append(bad, False)


def test_ledger_counts():
    led = _ledger([(1, False), (-1, True), (1, True)])
    assert led.traversal_count == 3
    assert led.signed_sum == 1
    assert led.decohered_count == 2


def test_classical_time_round_trip_is_zero():
    assert classical_time(_ledger([(1, False), (-1, False)])) == 0


def test_classical_time_single_decohered_traversal():
    assert classical_time(_ledger([(1, False), (-1, False), (1, True)])) == 1


def test_classical_time_run_partition():
    # runs: (+1 -1 +1 -1*) -> 0, then (+1 +1*) -> 2
    seq = [(1, False), (-1, False), (1, False), (-1, True), (1, False), (1, True)]
    assert classical_time(_ledger(seq)) == 2
    assert bare_classical_time(_ledger(seq)) == 2


def test_classical_time_ignores_open_tail():
    led = _ledger([(1, True), (1, False), (1, False)])
    assert classical_time(led) == 1           # open coherent tail not yet resolved
    assert bare_classical_time(led) == 3


def test_balanced_coherent_ledger_is_timeless():
    led = _ledger([(1, False), (-1, False)] * 50)
    assert classical_time(led) == 0
    led.append(1, True)
    assert classical_time(led) == 1


def _reference_classical_time(increments):
    """Reference reading: one scan of the whole ledger, closed runs only."""
    total = 0
    run = 0
    for inc in increments:
        run += inc.value
        if inc.decohered:
            total += abs(run)
            run = 0
    return total


_TICKS = st.lists(st.tuples(st.sampled_from([1, -1]), st.booleans()), max_size=80)


@settings(max_examples=200, deadline=None)
@given(_TICKS)
@example([])
@example([(1, False), (-1, False)] * 20)
@example([(1, False)] * 30)
@example([(-1, True)] * 30)
def test_series_matches_per_prefix_rescan(seq):
    led = _ledger(seq)
    series = classical_time_series(led)
    want = [_reference_classical_time(led.increments[:k + 1]) for k in range(len(seq))]
    assert series == want
    assert all(type(v) is int for v in series)
    assert classical_time(led) == _reference_classical_time(led.increments)


def test_classical_time_monotone_under_closed_segments():
    rng = np.random.default_rng(0)
    led = TickLedger()
    previous = 0
    for _ in range(60):
        for _ in range(int(rng.integers(0, 4))):
            led.append(int(rng.choice([1, -1])), False)
        led.append(int(rng.choice([1, -1])), True)     # close the run
        now = classical_time(led)
        assert now >= previous
        previous = now


# ---------------------------------------------------------------------------
# causal box
# ---------------------------------------------------------------------------

def test_box_rejects_bad_parameters():
    with pytest.raises(ValueError):
        CausalBox(decoherence_per_bounce=1.5)
    with pytest.raises(ValueError):
        CausalBox(photon=DensityMatrix.maximally_mixed((3,)))
    # bounce does not re-validate the photon, so an unchecked operator may not enter
    with pytest.raises(TypeError):
        CausalBox(photon=ComplexOperator(np.diag([2.0, -1.0]), (2,)))


def test_event_counter_is_not_a_constructor_argument():
    # the counter keys the (seed, event) replay streams; only bounce may move it
    with pytest.raises(TypeError):
        CausalBox(_event_count=5)
    assert "_event_count" not in repr(CausalBox())
    # nor do the ledgers take a history: a tick enters only by append or a bounce,
    # and the transmitted information is always the forward one
    with pytest.raises(TypeError, match="ledger"):
        CausalBox(ledger=TickLedger())
    with pytest.raises(TypeError, match="ledger"):
        CausalBox(ledger="oops")
    with pytest.raises(TypeError, match="increments"):
        TickLedger(increments=[photonclock.TickRecord(5, True)])
    with pytest.raises(TypeError, match="i_transmitted"):
        InfoLedger(i_plus=2.0, i_minus=0.0, i_transmitted=2.0, i_reflected=1.0,
                   h_in=0.0, h_out=0.0, landauer_joules=0.0)
    box = run_bounces(CausalBox(rng_seed=4), 3)
    assert box.ledger.increments == [(1, False), (-1, False), (1, False)]
    assert repr(CausalBox()).endswith("ledger=TickLedger(increments=[]), rng_seed=0)")
    led = InfoLedger(i_plus=2.0, i_minus=0.0, i_reflected=1.0,
                     h_in=0.0, h_out=0.0, landauer_joules=0.0)
    assert (led.i_transmitted, led.delta_s) == (2.0, 1.0)
    assert repr(led) == ("InfoLedger(i_plus=2.0, i_minus=0.0, i_transmitted=2.0, i_reflected=1.0, "
                         "h_in=0.0, h_out=0.0, landauer_joules=0.0, delta_s=1.0)")


def test_two_bounces_restore_state():
    box = CausalBox()
    initial = box.photon
    bounce(box)
    bounce(box)
    assert fidelity(box.photon, initial) == pytest.approx(1.0, abs=1e-12)


def test_ledger_alternates_from_forward():
    box = CausalBox()
    for _ in range(3):
        bounce(box)
    assert [inc.value for inc in box.ledger.increments] == [1, -1, 1]
    assert box.current_direction == -1


def test_bounce_decoherence_flags_replay_exactly():
    # the flag stream is keyed by (seed, bounce index); replay it directly
    seed, p, n = 21, 0.1, 100
    box = CausalBox(decoherence_per_bounce=p, rng_seed=seed)
    for _ in range(n):
        bounce(box)
    got = [inc.decohered for inc in box.ledger.increments]
    want = [bool(np.random.default_rng((seed, k)).random() < p) for k in range(n)]
    assert got == want
    count = sum(got)
    assert abs(count - n * p) <= 3 * math.sqrt(n * p * (1 - p))


def test_bounce_with_polarization_factor():
    photon = DensityMatrix.from_state_vector(np.kron(ket(0), ket(1)), (2, 2))
    box = CausalBox(photon=photon)
    initial = box.photon
    bounce(box)
    bounce(box)
    assert fidelity(box.photon, initial) == pytest.approx(1.0, abs=1e-12)


def _reference_bounce(box):
    """bounce with each new photon state built and validated as a DensityMatrix."""
    rng = box._event_rng()
    decohered = bool(rng.random() < box.decoherence_per_bounce)
    box.ledger.append(box.current_direction, decohered)
    photon = box.photon
    x_full = np.kron(PAULI_X, np.eye(photon.dim // 2, dtype=complex))
    photon = DensityMatrix(x_full @ photon.entries @ x_full.conj().T, photon.dims)
    p = box.decoherence_per_bounce
    if p != 0.0:
        mix = np.eye(photon.dim, dtype=complex) / photon.dim
        photon = DensityMatrix((1 - p) * photon.entries + p * mix, photon.dims)
    box.photon = photon
    return box


def _photons():
    rng = np.random.default_rng(31)
    return {"direction": projector(ket(0)),
            "mixed_direction": random_density_matrix(2, rng),
            "polarized": DensityMatrix(random_density_matrix(4, rng).entries, (2, 2))}


@pytest.mark.parametrize("photon", sorted(_photons()))
@pytest.mark.parametrize("p", [0.0, 0.25, 1.0])
def test_bounce_matches_validated_reference_bit_for_bit(photon, p):
    state = _photons()[photon]
    fast = CausalBox(photon=state, decoherence_per_bounce=p, rng_seed=13)
    slow = CausalBox(photon=state, decoherence_per_bounce=p, rng_seed=13)
    for _ in range(40):
        bounce(fast)
        _reference_bounce(slow)
        assert type(fast.photon) is DensityMatrix
        assert fast.photon.dims == slow.photon.dims
        assert fast.photon.entries.tobytes() == slow.photon.entries.tobytes()
        assert not fast.photon.entries.flags.writeable
    assert fast.ledger.increments == slow.ledger.increments
    assert fast._event_count == slow._event_count == 40


# ---------------------------------------------------------------------------
# bulk bounces and the replayed event draws
# ---------------------------------------------------------------------------

def _default_rng_draw(seed, k):
    return np.random.default_rng((seed, k)).random()


def test_event_draws_match_default_rng_on_random_pairs():
    # numpy promises stable SeedSequence and PCG64 streams (NEP 19); if that
    # ever changes, the replica must fail here rather than drift silently
    rnd = random.Random(8)
    for _ in range(2000):
        seed = rnd.randrange(1 << rnd.choice((8, 31, 32, 64, 96, 128, 160)))
        k = rnd.randrange(1 << rnd.choice((4, 16, 32)))
        assert _event_draws(seed, k, 1).tolist() == [_default_rng_draw(seed, k)], (seed, k)


@pytest.mark.parametrize("seed", [0, 3, 2**32 - 1, 2**32, 2**64 + 5, 2**96 + 1, 2**128 + 3])
def test_event_draws_match_default_rng_at_fixed_seeds(seed):
    # 2**96 + 1 and 2**128 + 3 fill the pool of four words, so the event
    # index enters through the trailing mix
    for start in (0, 12345, 2**32 - 64):
        got = _event_draws(seed, start, 64)
        want = np.array([_default_rng_draw(seed, k) for k in range(start, start + 64)])
        assert got.tobytes() == want.tobytes()


def test_event_draws_cover_the_last_one_word_index_and_refuse_the_next():
    assert _event_draws(5, 2**32 - 1, 1).tolist() == [_default_rng_draw(5, 2**32 - 1)]
    with pytest.raises(ValueError):
        _event_draws(5, 2**32, 1)
    with pytest.raises(ValueError):
        _event_draws(5, 2**32 - 1, 2)
    with pytest.raises(ValueError):
        _event_draws(-1, 0, 1)


def _bounced_pair(photon, p, seed, n, warm_up=False):
    """The same box after ``run_bounces`` and after ``n`` calls to ``bounce``."""
    boxes = [CausalBox(photon=photon, decoherence_per_bounce=p, rng_seed=seed)
             for _ in range(2)]
    if warm_up:
        for box in boxes:
            break_symmetry(box, BoundaryConditions(0.25, 0.25, 0.25, 0.25))
            bounce(box)
    fast, slow = boxes
    assert run_bounces(fast, n) is fast
    for _ in range(n):
        bounce(slow)
    return fast, slow


def _assert_same_box(fast, slow):
    assert fast.ledger.increments == slow.ledger.increments
    assert [type(v) for inc in fast.ledger.increments for v in inc] == \
        [type(v) for inc in slow.ledger.increments for v in inc]
    assert type(fast.photon) is DensityMatrix
    assert fast.photon.dims == slow.photon.dims
    assert fast.photon.entries.tobytes() == slow.photon.entries.tobytes()
    assert not fast.photon.entries.flags.writeable
    assert fast._event_count == slow._event_count


@pytest.mark.parametrize("n, p", [(2000, 0.25), (16, 0.25), (100, 0.0), (99, 1.0),
                                  (1, 0.0), (1, 1.0), (1, 0.25), (0, 0.25), (100, -0.0)])
def test_run_bounces_matches_the_bounce_loop_bit_for_bit(n, p):
    _assert_same_box(*_bounced_pair(projector(ket(0)), p, 3, n))


@pytest.mark.parametrize("photon", sorted(_photons()))
@pytest.mark.parametrize("n, p", [(1, 0.0), (1, 1.0), (37, 0.25)])
def test_run_bounces_continues_a_used_box_bit_for_bit(photon, n, p):
    # break_symmetry and a bounce first: the draws start past event 0 and
    # the ledger length is odd, so the first new tick is -1
    fast, slow = _bounced_pair(_photons()[photon], p, 2**64 + 5, n, warm_up=True)
    assert fast._event_count == n + 2
    _assert_same_box(fast, slow)


def test_run_bounces_draws_in_blocks(monkeypatch):
    monkeypatch.setattr(photonclock, "_DRAW_CHUNK", 7)
    _assert_same_box(*_bounced_pair(projector(ket(0)), 0.5, 11, 50, warm_up=True))


def test_run_bounces_rejects_a_negative_count():
    with pytest.raises(ValueError):
        run_bounces(CausalBox(), -1)


def test_nondiscernability_holds_for_closed_box():
    assert check_nondiscernability(CausalBox(), k_cycles=1)
    assert check_nondiscernability(CausalBox(), k_cycles=1000)


def test_nondiscernability_requires_closed_box():
    with pytest.raises(ValueError):
        check_nondiscernability(CausalBox(decoherence_per_bounce=0.01), k_cycles=1)


def _reference_nondiscernability(box, k_cycles):
    """check_nondiscernability's former body: a probe box bounced 2 * k_cycles times."""
    if box.decoherence_per_bounce != 0.0:
        raise ValueError("retroactive check requires zero decoherence")
    if k_cycles < 1:
        raise ValueError(f"k_cycles must be >= 1, got {k_cycles}")

    probe = CausalBox(
        photon=box.photon,
        decoherence_per_bounce=0.0,
        rng_seed=box.rng_seed,
    )
    initial = box.photon
    for _ in range(k_cycles):
        bounce(probe)
        bounce(probe)
        if abs(fidelity(probe.photon, initial) - 1.0) > 1e-10:
            return False
    return True


def _round_trip_photons():
    rng = np.random.default_rng(47)
    return {"direction": projector(ket(0)),
            "mixed_polarized": DensityMatrix(random_density_matrix(4, rng).entries, (2, 2)),
            "three_level": DensityMatrix(random_density_matrix(6, rng).entries, (2, 3))}


@pytest.mark.parametrize("photon", sorted(_round_trip_photons()))
@pytest.mark.parametrize("k_cycles", [1, 2, 7, 1000])
def test_nondiscernability_matches_the_probe_box_reference(photon, k_cycles, monkeypatch):
    state = _round_trip_photons()[photon]
    box = CausalBox(photon=state, rng_seed=6)
    compared = []
    measured = photonclock.fidelity
    monkeypatch.setattr(photonclock, "fidelity", lambda rho, sigma: compared.append(
        (rho.entries.tobytes(), sigma is state)) or measured(rho, sigma))
    assert check_nondiscernability(box, k_cycles) is _reference_nondiscernability(box, k_cycles)
    # every round trip is compared, as the probe box reaches it, against the photon itself
    probe = CausalBox(photon=state)
    round_trips = [bounce(bounce(probe)).photon.entries.tobytes() for _ in range(k_cycles)]
    assert compared == [(entries, True) for entries in round_trips]


@pytest.mark.parametrize("k_cycles", [1, 7])
def test_nondiscernability_matches_the_reference_when_a_round_trip_differs(k_cycles,
                                                                          monkeypatch):
    # a phase flip S in place of the mirror: S S = Z sends |+> to |->
    s_gate = np.diag([1.0, 1j])
    monkeypatch.setattr(photonclock, "_direction_flip", lambda dim: (s_gate, s_gate.conj().T))
    for vec, indiscernible in ((ket(0), True), (np.array([1.0, 1.0]), False)):
        box = CausalBox(photon=projector(vec))
        assert check_nondiscernability(box, k_cycles) is indiscernible
        assert _reference_nondiscernability(box, k_cycles) is indiscernible


def test_nondiscernability_leaves_the_box_untouched(monkeypatch):
    box = CausalBox(photon=_round_trip_photons()["three_level"], rng_seed=5)
    run_bounces(box, 3)
    photon, events, ticks = box.photon, box._event_count, box.ledger.traversal_count

    def refused(*args, **kwargs):
        raise AssertionError("the round-trip probe bounced a box or drew an event")

    monkeypatch.setattr(CausalBox, "_event_rng", refused)
    monkeypatch.setattr(photonclock, "CausalBox", refused)
    monkeypatch.setattr(photonclock, "bounce", refused)
    assert check_nondiscernability(box, 7)
    assert box.photon is photon
    assert box._event_count == events == 3
    assert box.ledger.traversal_count == ticks == 3


# ---------------------------------------------------------------------------
# symmetry breaking
# ---------------------------------------------------------------------------

def test_boundary_conditions_validate():
    BoundaryConditions(0.25, 0.25, 0.25, 0.25)
    with pytest.raises(ValueError):
        BoundaryConditions(0.5, 0.5, 0.5, -0.5)
    with pytest.raises(ValueError):
        BoundaryConditions(0.5, 0.5, 0.5, 0.5)
    for k in range(4):   # NaN fails both checks, so it is refused when built
        weights = [0.5, 0.25, 0.25, 0.25]
        weights[k] = math.nan
        with pytest.raises(ValueError, match="non-negative"):
            BoundaryConditions(*weights)


def test_forced_forward_outcome():
    boundary = BoundaryConditions(1.0, 0.0, 0.0, 0.0)
    for seed in range(5):
        box = CausalBox(rng_seed=seed)
        before = classical_time(box.ledger)
        assert break_symmetry(box, boundary) is BreakOutcome.FORWARD_DIAMOND
        assert classical_time(box.ledger) == before + 1


def test_simultaneous_outcomes_add_no_time():
    boundary = BoundaryConditions(0.0, 0.0, 1.0, 0.0)
    box = CausalBox()
    outcome = break_symmetry(box, boundary)
    assert outcome is BreakOutcome.SIMULTANEOUS_EMISSION
    assert classical_time(box.ledger) == 0
    assert box.ledger.traversal_count == 2     # the balancing pair is recorded


def test_uniform_outcome_frequencies():
    boundary = BoundaryConditions(0.25, 0.25, 0.25, 0.25)
    box = CausalBox(rng_seed=99)
    counts = {o: 0 for o in BreakOutcome}
    n = 10_000
    for _ in range(n):
        counts[break_symmetry(box, boundary)] += 1
    sigma = math.sqrt(n * 0.25 * 0.75)
    for outcome, c in counts.items():
        assert abs(c - n * 0.25) <= 3 * sigma, (outcome, c)


# ---------------------------------------------------------------------------
# combined forward/reverse propagator
# ---------------------------------------------------------------------------

def _rcp_matrix(op, t):
    """R(t) for one t: rcp_invariant's former per-sample construction."""
    from scipy.linalg import expm
    g = np.eye(op.dim, dtype=complex)
    fwd = expm(-1j * t * op.t_plus.entries) / 2
    rev = expm(1j * t * op.t_minus.entries - op.epsilon * abs(t) * g) / 2
    return fwd + rev.conj().T


def _reference_rcp_values(op, psi, ts):
    v = np.asarray(psi, dtype=complex).reshape(-1)
    v = v / np.linalg.norm(v)
    values = []
    for t in ts:
        rv = _rcp_matrix(op, float(t)) @ v
        values.append(float(np.real(np.vdot(rv, rv))))
    return values


def _random_hermitian(d, rng):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return ComplexOperator((g + g.conj().T) / 2, (d,))


def test_rcp_identity_at_time_zero():
    rng = np.random.default_rng(1)
    h = _random_hermitian(4, rng)
    op = RcpOperator(t_plus=h, t_minus=h, epsilon=0.3)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    np.testing.assert_allclose(_rcp_matrix(op, 0.0) @ psi, psi, atol=1e-12)


def test_rcp_invariant_constant_for_dual_pair():
    rng = np.random.default_rng(2)
    h = _random_hermitian(4, rng)
    op = RcpOperator(t_plus=h, t_minus=h, epsilon=0.0)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    rep = rcp_invariant(op, psi, np.linspace(0.0, 10.0, 81))
    assert rep.constant
    assert rep.drift < 1e-10
    assert rep.values[0] == pytest.approx(1.0, abs=1e-12)


def test_rcp_invariant_breaks_for_mismatched_generators():
    rng = np.random.default_rng(3)
    op = RcpOperator(t_plus=_random_hermitian(4, rng),
                     t_minus=_random_hermitian(4, rng), epsilon=0.0)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    rep = rcp_invariant(op, psi, np.linspace(0.0, 10.0, 81))
    assert not rep.constant


@pytest.mark.parametrize("epsilon", [0.0, 0.1])
def test_rcp_invariant_refuses_a_non_finite_norm(epsilon):
    # the exponentials overflow to NaN norms, which max and min would skip
    rng = np.random.default_rng(2)
    h = _random_hermitian(4, rng)
    op = RcpOperator(t_plus=h, t_minus=h, epsilon=epsilon)
    with pytest.raises(ValueError, match=r"not finite at t = 5e\+307"):
        rcp_invariant(op, np.ones(4), [0.0, 5e307, 1e308])


def test_rcp_damping_decays_monotonically():
    rng = np.random.default_rng(4)
    h = _random_hermitian(4, rng)
    op = RcpOperator(t_plus=h, t_minus=h, epsilon=0.01)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    rep = rcp_invariant(op, psi, np.linspace(0.0, 10.0, 41))
    diffs = np.diff(rep.values)
    assert diffs.max() < 0
    assert not rep.constant


def test_rcp_drift_ordered_in_epsilon():
    rng = np.random.default_rng(5)
    h = _random_hermitian(4, rng)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    ts = np.linspace(0.25, 5.0, 20)
    values = {}
    for eps in (0.01, 0.02):
        op = RcpOperator(t_plus=h, t_minus=h, epsilon=eps)
        values[eps] = rcp_invariant(op, psi, ts).values
    for v1, v2 in zip(values[0.01], values[0.02]):
        assert 1.0 - v2 > 1.0 - v1 > 0.0


def test_rcp_closed_form_with_identity_damping():
    # dual generators, G = I: ||R(t) psi||^2 = ((1 + exp(-eps t)) / 2)^2
    rng = np.random.default_rng(6)
    h = _random_hermitian(3, rng)
    eps = 0.17
    op = RcpOperator(t_plus=h, t_minus=h, epsilon=eps)
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    ts = np.linspace(0.0, 6.0, 25)
    rep = rcp_invariant(op, psi, ts)
    want = ((1.0 + np.exp(-eps * ts)) / 2.0) ** 2
    np.testing.assert_allclose(rep.values, want, atol=1e-10)


@pytest.mark.parametrize("epsilon", [0.0, 0.1, 0.37])
@pytest.mark.parametrize("dim", [2, 4])
def test_rcp_invariant_matches_the_per_t_reference_bit_for_bit(epsilon, dim):
    rng = np.random.default_rng(70 + dim)
    h = _random_hermitian(dim, rng)
    for t_minus in (h, _random_hermitian(dim, rng)):
        op = RcpOperator(t_plus=h, t_minus=t_minus, epsilon=epsilon)
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        ts = [*np.linspace(-3.0, 4.0, 57), 0.0, -0.0, 1e-300, 40.0]
        rep = rcp_invariant(op, psi, ts)
        assert np.array(rep.values).tobytes() == \
            np.array(_reference_rcp_values(op, psi, ts)).tobytes()


def test_rcp_invariant_makes_two_expm_calls(monkeypatch):
    import scipy.linalg

    calls = []
    expm = scipy.linalg.expm

    def counting(a):
        calls.append(np.shape(a))
        return expm(a)

    monkeypatch.setattr(scipy.linalg, "expm", counting)
    rng = np.random.default_rng(9)
    h = _random_hermitian(4, rng)
    rcp_invariant(RcpOperator(t_plus=h, t_minus=h, epsilon=0.1), np.ones(4),
                  np.linspace(0.0, 4.0, 200))
    assert calls == [(200, 4, 4), (200, 4, 4)]


@pytest.mark.parametrize("points", [1, 6, 7, 8, 50])
def test_rcp_invariant_exponentiates_in_blocks(points, monkeypatch):
    # blocks of 7 sample times at dim 4, so the stacks stay small
    monkeypatch.setattr(photonclock, "_STACK_ENTRIES", 7 * 16 + 3)
    rng = np.random.default_rng(10)
    h = _random_hermitian(4, rng)
    op = RcpOperator(t_plus=h, t_minus=_random_hermitian(4, rng), epsilon=0.2)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    ts = np.linspace(-1.0, 5.0, points)
    assert np.array(rcp_invariant(op, psi, ts).values).tobytes() == \
        np.array(_reference_rcp_values(op, psi, ts)).tobytes()


def test_rcp_rejects_bad_inputs():
    rng = np.random.default_rng(7)
    h3, h4 = _random_hermitian(3, rng), _random_hermitian(4, rng)
    with pytest.raises(ValueError):
        RcpOperator(t_plus=h3, t_minus=h4)
    with pytest.raises(ValueError):
        RcpOperator(t_plus=h3, t_minus=h3, epsilon=-0.1)
    with pytest.raises(ValueError, match="epsilon must be >= 0, got nan"):
        RcpOperator(t_plus=h3, t_minus=h3, epsilon=math.nan)


# ---------------------------------------------------------------------------
# decoherence cascade
# ---------------------------------------------------------------------------

def test_cascade_two_sites_revives_exactly():
    rep = cascade(2, 0.0, horizon=8)
    assert rep.best_fidelity == pytest.approx(1.0, abs=1e-12)
    assert rep.best_step == 2


def test_cascade_fidelity_shrinks_with_size():
    best = [cascade(n, 0.0, horizon=36).best_fidelity for n in range(2, 7)]
    assert all(b1 >= b2 for b1, b2 in zip(best, best[1:]))
    assert best[0] > 0.99


def test_cascade_noise_strictly_hurts():
    clean = cascade(4, 0.0, horizon=36).best_fidelity
    noisy = cascade(4, 0.05, horizon=36).best_fidelity
    assert noisy < clean


def test_cascade_report_shape():
    rep = cascade(3, 0.01, horizon=12)
    assert isinstance(rep, CascadeReport)
    assert len(rep.fidelities) == 12
    assert rep.best_fidelity == max(rep.fidelities)
    assert rep.fidelities[rep.best_step - 1] == rep.best_fidelity
    assert all(-1e-12 <= f <= 1 + 1e-12 for f in rep.fidelities)
    with pytest.raises(TypeError):   # deterministic: no seed to pass
        cascade(3, 0.01, horizon=12, seed=5)


def _reference_cascade(n, noise, horizon):
    """cascade's former loop: one conjugation and one depolarizing mix per step."""
    step = photonclock._cascade_step(n)
    step_dag = step.conj().T
    rho = np.zeros((n, n), dtype=complex)
    rho[0, 0] = 1.0
    mix = np.eye(n, dtype=complex) / n
    fids = []
    for _ in range(horizon):
        rho = step @ rho @ step_dag
        if noise:
            rho = (1 - noise) * rho + noise * mix
        fids.append(float(np.real(rho[0, 0])))
    return fids


@pytest.mark.parametrize("n", [2, 5, 12])
@pytest.mark.parametrize("noise", [0.0, -0.0, 1e-300, 0.02, 1.0])
def test_cascade_matches_the_per_step_reference_bit_for_bit(n, noise):
    rep = cascade(n, noise, horizon=300)
    fids = _reference_cascade(n, noise, 300)
    assert np.array(rep.fidelities).tobytes() == np.array(fids).tobytes()
    assert rep.best_step == int(np.argmax(fids)) + 1


def test_cascade_rejects_bad_sizes():
    with pytest.raises(ValueError):
        cascade(1, 0.0, horizon=4)
    with pytest.raises(ValueError):
        cascade(MAX_CASCADE_SITES + 1, 0.0, horizon=4)


CASCADE_SITES = range(2, MAX_CASCADE_SITES + 1)


def _chain_hopping(n):
    hop = np.zeros((n, n), dtype=complex)
    for j in range(n - 1):
        hop[j, j + 1] = hop[j + 1, j] = 1.0
    return hop


def _regenerated_cascade_steps() -> str:
    """The step table rebuilt with scipy, as ``_cascade_steps.py`` spells it.

    This is the one way to rebuild the table: paste the lines into the
    ``b85decode`` call there.
    """
    from scipy.linalg import expm
    table = b"".join(expm(-1j * CASCADE_STEP * _chain_hopping(n)).astype("<c16").tobytes()
                     for n in CASCADE_SITES)
    text = base64.b85encode(zlib.compress(table, 9)).decode()
    return "\n".join(f'    "{text[i:i + 72]}"' for i in range(0, len(text), 72))


@pytest.mark.parametrize("n", CASCADE_SITES)
def test_cascade_step_table_is_scipys_expm_bit_for_bit(n):
    from scipy.linalg import expm
    step = photonclock._cascade_step(n)
    assert step.tobytes() == expm(-1j * CASCADE_STEP * _chain_hopping(n)).tobytes(), (
        "the cascade step table no longer matches scipy.linalg.expm; the regenerated "
        "table for src/altcausal/_cascade_steps.py is\n" + _regenerated_cascade_steps())


@pytest.mark.parametrize("n", CASCADE_SITES)
def test_cascade_step_table_matches_the_chain_closed_form(n):
    # the open chain's sine modes, with eigenvalues 2 cos(k pi / (n + 1))
    k = np.arange(1, n + 1)
    modes = np.sqrt(2 / (n + 1)) * np.sin(np.outer(k, k) * np.pi / (n + 1))
    phases = np.exp(-1j * CASCADE_STEP * 2 * np.cos(k * np.pi / (n + 1)))
    closed = (modes * phases) @ modes.T
    assert np.max(np.abs(photonclock._cascade_step(n) - closed)) <= 1e-14


def test_cascade_step_table_covers_exactly_the_allowed_chain_lengths():
    from altcausal._cascade_steps import STEPS
    assert len(STEPS) == 16 * sum(n * n for n in CASCADE_SITES)


# ---------------------------------------------------------------------------
# echo bookkeeping
# ---------------------------------------------------------------------------

def test_wf_echo_pinned_values():
    assert wf_echo(1.0, 7.5) == (7.5, 0.0)
    assert wf_echo(0.0, 7.5) == (0.0, 7.5)
    assert wf_echo(0.5, 8.0) == (4.0, 4.0)
    # below half of i_transmitted the reflected share is i_transmitted - delta_s,
    # an ulp off the product 0.8 (which balances too)
    assert wf_echo(0.1, 8.0) == (0.7999999999999998, 7.2)


def test_wf_echo_rejects_bad_inputs():
    with pytest.raises(ValueError):
        wf_echo(1.2, 1.0)
    with pytest.raises(ValueError):
        wf_echo(0.5, -1.0)
    for transmitted in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            wf_echo(0.5, transmitted)


@settings(max_examples=300)
@given(alpha=st.floats(min_value=0.0, max_value=1.0),
       transmitted=st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
def test_wf_echo_balances_exactly(alpha, transmitted):
    reflected, delta_s = wf_echo(alpha, transmitted)
    assert reflected + delta_s == transmitted
    assert reflected >= 0.0
    assert delta_s >= 0.0
