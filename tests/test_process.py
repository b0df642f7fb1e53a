import math

import numpy as np
import pytest

from altcausal.qcore import (
    ComplexOperator,
    DensityMatrix,
    PAULI_X,
    PAULI_Z,
    ket,
    projector,
    random_channel,
    random_density_matrix,
    random_unitary,
    spectral_norm,
    von_neumann_entropy,
)
from altcausal.process import (
    ProcessMatrix,
    _out_wire_phase_generator,
    _swap_parties,
    ac_vs_ico_entropy,
    build_alternating_family,
    build_quantum_switch,
    check_duality,
    control_interference_probabilities,
    from_channel_order,
    switch_output,
    switch_process_matrix,
    switch_unitary,
    traced_target_channel,
    validate_ocb,
    with_skew_perturbation,
)


def _plus():
    return DensityMatrix.from_state_vector(np.array([1.0, 1.0]) / math.sqrt(2), (2,))


def _apply(c, rho):
    # the Choi contraction E(rho)[a, b] = sum_ij rho[i, j] choi[(i, a), (j, b)]
    choi = c.choi.entries.reshape(c.in_dim, c.out_dim, c.in_dim, c.out_dim)
    return DensityMatrix(np.einsum("ij,iajb->ab", rho.entries, choi), (c.out_dim,))


# ---------------------------------------------------------------------------
# validity
# ---------------------------------------------------------------------------

def test_validity_for_random_channels():
    rng = np.random.default_rng(0)
    for order in ("AB", "BA"):
        for _ in range(10):
            w = from_channel_order(random_channel(2, 2, rng), order)
            rep = validate_ocb(w)
            assert rep.valid
            assert rep.normalization_deviation < 1e-9
            assert rep.hermiticity_deviation < 1e-9
            assert rep.min_eigenvalue > -1e-9


def test_validity_for_nonsquare_channel():
    rng = np.random.default_rng(1)
    assert validate_ocb(from_channel_order(random_channel(2, 3, rng), "AB")).valid


def test_process_matrix_rejects_wrong_wire_count():
    with pytest.raises(ValueError):
        ProcessMatrix(ComplexOperator(np.eye(4), (2, 2)))


# ---------------------------------------------------------------------------
# alternating family and duality
# ---------------------------------------------------------------------------

def test_family_starts_at_forward_member():
    rng = np.random.default_rng(5)
    w = from_channel_order(random_channel(2, 2, rng), "AB")
    fam = build_alternating_family(w, omega=1.0)
    np.testing.assert_allclose(fam.forward(0.0).w.entries, w.w.entries, atol=0)


def test_duality_exact_on_grid():
    rng = np.random.default_rng(6)
    for omega in (0.5, 1.0, 2.0):
        w = from_channel_order(random_channel(2, 2, rng), "AB")
        fam = build_alternating_family(w, omega=omega)
        ts = np.linspace(-2 * fam.period, 2 * fam.period, 64)
        assert check_duality(fam, ts) < 1e-12


def test_family_is_periodic():
    rng = np.random.default_rng(7)
    w = from_channel_order(random_channel(2, 2, rng), "AB")
    fam = build_alternating_family(w, omega=1.3)
    for t in (0.0, 0.4, 2.2):
        gap = spectral_norm(fam.forward(t + fam.period).w.entries - fam.forward(t).w.entries)
        assert gap < 1e-12


def test_family_members_stay_valid():
    rng = np.random.default_rng(8)
    w = from_channel_order(random_channel(2, 2, rng), "AB")
    fam = build_alternating_family(w, omega=2.0)
    for t in np.linspace(0, fam.period, 9):
        assert validate_ocb(fam.forward(float(t))).valid
        assert validate_ocb(fam.backward(float(t))).valid


def _reference_pair(w_fwd, omega, phase_mode, t):
    """The family's former generator: both members at ``t``, each one validated."""
    base, dims = w_fwd.w.entries, w_fwd.dims
    if phase_mode == "continuous":
        g = _out_wire_phase_generator(dims)
        gap = g[:, None] - g[None, :]

        def member(s):
            return base * np.exp(-1j * omega * s * gap)
    else:
        swapped = _swap_parties(base, dims)

        def member(s):
            return base if math.cos(omega * s) >= 0 else swapped

    fwd = ProcessMatrix(ComplexOperator(member(t), dims))
    back = ProcessMatrix(ComplexOperator(member(-t).conj().T, dims))
    return fwd, back


@pytest.mark.parametrize("phase_mode", ["continuous", "discrete"])
@pytest.mark.parametrize("dim", [2, 3])
def test_members_match_validated_reference_bit_for_bit(phase_mode, dim):
    rng = np.random.default_rng(40 + dim)
    w = from_channel_order(random_channel(dim, dim, rng), "AB")
    for omega in (0.7, 1.0, 2.5):
        fam = build_alternating_family(w, omega=omega, phase_mode=phase_mode)
        ts = np.linspace(-2 * fam.period, 2 * fam.period, 19)
        for t in [*ts, *ts.tolist(), fam.period, 0.0, -0.0]:
            want = _reference_pair(w, omega, phase_mode, t)
            for got, ref in zip((fam.forward(t), fam.backward(t)), want):
                assert got.w.entries.tobytes() == ref.w.entries.tobytes()
                assert got.dims == ref.dims
                assert validate_ocb(got).valid


def test_trusted_values_are_read_only_copies():
    rng = np.random.default_rng(41)
    state = random_density_matrix(4, rng).entries.copy()
    rho = DensityMatrix._trusted(state, (2, 2))
    assert not rho.entries.flags.writeable
    assert state.flags.writeable
    assert not np.shares_memory(rho.entries, state)
    w = from_channel_order(random_channel(2, 2, rng), "AB")
    for phase_mode in ("continuous", "discrete"):
        fam = build_alternating_family(w, omega=1.0, phase_mode=phase_mode)
        for member in (fam.forward(0.0), fam.backward(0.0), fam.forward(4.0), fam.backward(4.0)):
            assert not member.w.entries.flags.writeable
            assert not np.shares_memory(member.w.entries, w.w.entries)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("phase_mode, omega, t", [
    ("continuous", 1e308, 6.0),      # omega alone overflows the phase
    ("continuous", 1.0, 1e308),      # omega * t * gap overflows at a late sample
    ("discrete", 1e308, 6.0),
    ("discrete", 2.0, 1e308),
])
def test_overflowing_member_phase_is_refused(phase_mode, omega, t):
    rng = np.random.default_rng(12)
    w = from_channel_order(random_channel(2, 2, rng), "AB")
    fam = build_alternating_family(w, omega=omega, phase_mode=phase_mode)
    for member in (fam.forward, fam.backward):
        with pytest.raises(ValueError, match="omega"):
            member(t)
    with pytest.raises(ValueError, match="omega"):
        check_duality(fam, [0.0, t])


@pytest.mark.filterwarnings("error")
def test_largest_finite_phase_still_builds_members():
    rng = np.random.default_rng(12)
    w = from_channel_order(random_channel(2, 2, rng), "AB")
    fam = build_alternating_family(w, omega=1.0)   # widest out-wire gap is 2
    member = fam.forward(8e307)
    assert np.isfinite(member.w.entries).all()
    assert validate_ocb(member).valid


def test_discrete_phase_mode_duality():
    rng = np.random.default_rng(10)
    w = from_channel_order(random_channel(2, 2, rng), "AB")
    fam = build_alternating_family(w, omega=1.0, phase_mode="discrete")
    ts = np.linspace(-7, 7, 40)
    assert check_duality(fam, ts) < 1e-12


@pytest.mark.parametrize("eps", [1e-3, 1e-2])
def test_skew_perturbation_window(eps):
    rng = np.random.default_rng(11)
    w = from_channel_order(random_channel(2, 2, rng), "AB")
    fam = with_skew_perturbation(build_alternating_family(w, omega=1.0), eps, seed=1)
    dev = check_duality(fam, np.linspace(0, 6, 13))
    assert 0.5 * eps <= dev <= 2.0 * eps


def test_family_rejects_bad_omega():
    rng = np.random.default_rng(12)
    w = from_channel_order(random_channel(2, 2, rng), "AB")
    with pytest.raises(ValueError):
        build_alternating_family(w, omega=0.0)


# ---------------------------------------------------------------------------
# quantum switch
# ---------------------------------------------------------------------------

def _oracle_interference(u_a, u_b, target, control_vec):
    # independent dense 4-dim evolution: joint = S (target (x) ctrl) S^dag
    s = np.kron(u_b @ u_a, np.diag([1.0, 0.0])) + np.kron(u_a @ u_b, np.diag([0.0, 1.0]))
    ctrl = np.outer(control_vec, control_vec.conj())
    joint = s @ np.kron(target, ctrl) @ s.conj().T
    probs = []
    for sign in (1.0, -1.0):
        v = np.array([1.0, sign]) / math.sqrt(2)
        proj = np.kron(np.eye(2), np.outer(v, v.conj()))
        probs.append(float(np.real(np.trace(proj @ joint))))
    return tuple(probs)


def test_switch_identity_pair_gives_plus():
    model = build_quantum_switch(np.eye(2), np.eye(2))
    p_plus, p_minus = control_interference_probabilities(
        model, DensityMatrix.maximally_mixed((2,)), _plus())
    assert p_plus == pytest.approx(1.0, abs=1e-10)
    assert p_minus == pytest.approx(0.0, abs=1e-10)


def test_switch_anticommuting_pair():
    model = build_quantum_switch(PAULI_X, PAULI_Z)
    target = DensityMatrix.maximally_mixed((2,))
    p_plus, p_minus = control_interference_probabilities(model, target, _plus())
    assert p_minus == pytest.approx(1.0, abs=1e-10)
    oracle = _oracle_interference(PAULI_X, PAULI_Z, np.eye(2) / 2,
                                  np.array([1.0, 1.0]) / math.sqrt(2))
    assert (p_plus, p_minus) == pytest.approx(oracle, abs=1e-10)


def test_switch_commuting_pair():
    model = build_quantum_switch(PAULI_Z, PAULI_Z)
    p_plus, p_minus = control_interference_probabilities(
        model, DensityMatrix.maximally_mixed((2,)), _plus())
    assert p_plus == pytest.approx(1.0, abs=1e-10)


def test_switch_matches_oracle_for_random_unitaries():
    rng = np.random.default_rng(16)
    for _ in range(5):
        u_a, u_b = random_unitary(2, rng), random_unitary(2, rng)
        target = random_density_matrix(2, rng)
        model = build_quantum_switch(u_a, u_b)
        got = control_interference_probabilities(model, target, _plus())
        want = _oracle_interference(u_a, u_b, target.entries,
                                    np.array([1.0, 1.0]) / math.sqrt(2))
        assert got == pytest.approx(want, abs=1e-10)


def test_switch_unitary_is_unitary():
    rng = np.random.default_rng(17)
    model = build_quantum_switch(random_unitary(2, rng), random_unitary(2, rng))
    s = switch_unitary(model).entries
    np.testing.assert_allclose(s @ s.conj().T, np.eye(4), atol=1e-12)


def test_switch_rejects_nonunitary():
    with pytest.raises(ValueError):
        build_quantum_switch(np.diag([1.0, 0.5]), PAULI_Z)


def test_definite_control_reduces_to_composition():
    model = build_quantum_switch(PAULI_X, PAULI_Z)
    rng = np.random.default_rng(18)
    rho = random_density_matrix(2, rng)
    out0 = _apply(traced_target_channel(model, projector(ket(0))), rho)
    u = PAULI_Z @ PAULI_X
    np.testing.assert_allclose(out0.entries, u @ rho.entries @ u.conj().T, atol=1e-12)
    out1 = _apply(traced_target_channel(model, projector(ket(1))), rho)
    v = PAULI_X @ PAULI_Z
    np.testing.assert_allclose(out1.entries, v @ rho.entries @ v.conj().T, atol=1e-12)


def _reference_traced_target_choi(model, control):
    """traced_target_channel's former loop over the target's unit matrices."""
    d = model.target_dim
    s = switch_unitary(model).entries
    choi = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            joint = s @ np.kron(unit, control.entries) @ s.conj().T
            out = np.einsum("acbc->ab", joint.reshape(d, 2, d, 2))
            eij = np.zeros((d, d), dtype=complex)
            eij[i, j] = 1.0
            choi += np.kron(eij, out)
    return choi


@pytest.mark.parametrize("dim", [2, 3])
def test_traced_target_channel_matches_the_reference_loop_bit_for_bit(dim):
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    # the controls of acceptance criterion c02
    controls = (projector(ket(0)), projector(ket(1)),
                DensityMatrix(np.outer(plus, plus.conj()), (2,)))
    for i in range(10):
        rng = np.random.default_rng(2100 + i)
        model = build_quantum_switch(random_unitary(dim, rng), random_unitary(dim, rng))
        for control in controls:
            got = traced_target_channel(model, control).choi.entries
            assert got.tobytes() == _reference_traced_target_choi(model, control).tobytes()


def test_switch_process_matrix_is_valid():
    rng = np.random.default_rng(19)
    model = build_quantum_switch(random_unitary(2, rng), random_unitary(2, rng))
    for ctrl in (projector(ket(0)), projector(ket(1)), _plus()):
        assert validate_ocb(switch_process_matrix(model, ctrl)).valid


def test_switch_output_dims():
    model = build_quantum_switch(PAULI_X, PAULI_Z)
    out = switch_output(model, DensityMatrix.maximally_mixed((2,)), _plus())
    assert out.dims == (2, 2)


@pytest.fixture
def validations(monkeypatch):
    """Counts validated DensityMatrix constructions; ``_trusted`` is not one."""
    count = [0]
    validated = DensityMatrix.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        validated(self, *args, **kwargs)

    monkeypatch.setattr(DensityMatrix, "__init__", counting)
    return count


def _controls(points):
    # the control states of the CLI's switch sweep
    return [DensityMatrix.from_state_vector(np.array([math.cos(th), math.sin(th)]), (2,))
            for th in np.linspace(0.0, math.pi / 2, points)]


def _reference_switch_output(model, target, control):
    """switch_output's former body: the output built and validated as a DensityMatrix."""
    s = switch_unitary(model).entries
    joint = np.kron(target.entries, control.entries)
    return DensityMatrix(s @ joint @ s.conj().T, (model.target_dim, 2))


@pytest.mark.parametrize("dim", [2, 3])
def test_switch_output_matches_validated_reference_bit_for_bit(dim):
    rng = np.random.default_rng(50 + dim)
    pairs = [(random_unitary(dim, rng), random_unitary(dim, rng))]
    if dim == 2:
        pairs += [(PAULI_X, PAULI_Z), (PAULI_X, PAULI_X)]
    targets = [projector(ket(0, dim)), random_density_matrix(dim, rng)]
    for u_a, u_b in pairs:
        model = build_quantum_switch(u_a, u_b)
        for target in targets:
            for control in [*_controls(33), _plus()]:
                fast = switch_output(model, target, control)
                slow = _reference_switch_output(model, target, control)
                assert type(fast) is DensityMatrix
                assert fast.dims == slow.dims
                assert fast.entries.tobytes() == slow.entries.tobytes()
                assert not fast.entries.flags.writeable


def test_switch_readout_validates_nothing_per_angle(validations):
    model = build_quantum_switch(PAULI_X, PAULI_Z)
    target = DensityMatrix.maximally_mixed((2,))
    counts = []
    for points in (5, 50):
        controls = _controls(points)
        before = validations[0]
        for control in controls:
            control_interference_probabilities(model, target, control)
        counts.append(validations[0] - before)
    assert counts == [0, 0]


# ---------------------------------------------------------------------------
# alternating vs coherent order
# ---------------------------------------------------------------------------

def test_ac_vs_ico_no_noise_is_flat():
    rep = ac_vs_ico_entropy(PAULI_X, PAULI_Z, noise=0.0, steps=5)
    assert max(rep.ac_entropies) < 1e-10
    assert max(rep.ico_entropies) < 1e-10


def test_ac_vs_ico_full_noise_saturates():
    rep = ac_vs_ico_entropy(PAULI_X, PAULI_Z, noise=1.0, steps=1)
    assert rep.final_ac == pytest.approx(2.0, abs=1e-10)
    assert rep.final_ico == pytest.approx(2.0, abs=1e-10)


def test_ac_vs_ico_series_monotone():
    rep = ac_vs_ico_entropy(PAULI_X, PAULI_Z, noise=0.05, steps=20)
    assert len(rep.ac_entropies) == 21
    for seq in (rep.ac_entropies, rep.ico_entropies):
        diffs = np.diff(seq)
        assert diffs.min() > -1e-10


def test_ac_vs_ico_rejects_bad_args():
    with pytest.raises(ValueError):
        ac_vs_ico_entropy(PAULI_X, PAULI_Z, noise=1.5, steps=3)
    with pytest.raises(ValueError):
        ac_vs_ico_entropy(PAULI_X, PAULI_Z, noise=0.1, steps=0)


def _reference_ac_vs_ico(u_a, u_b, noise, steps):
    """ac_vs_ico_entropy's former loop: every state built and validated as a DensityMatrix."""
    model = build_quantum_switch(u_a, u_b)
    d = model.target_dim
    mix = np.eye(2 * d, dtype=complex) / (2 * d)
    m_even = np.kron(model.u_a.entries @ model.u_b.entries, np.eye(2, dtype=complex))
    m_odd = np.kron(model.u_b.entries @ model.u_a.entries, np.eye(2, dtype=complex))
    s = switch_unitary(model).entries
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    target = projector(ket(0, d)).entries
    ac = np.kron(target, np.outer(ket(0), ket(0).conj()))
    ico = np.kron(target, np.outer(plus, plus.conj()))
    ac_series, ico_series = [], []
    for k in range(steps + 1):
        if k:
            u = m_even if k % 2 == 1 else m_odd
            ac = (1 - noise) * (u @ ac @ u.conj().T) + noise * mix
            ico = (1 - noise) * (s @ ico @ s.conj().T) + noise * mix
        ac_series.append(von_neumann_entropy(DensityMatrix(ac, (d, 2))))
        ico_series.append(von_neumann_entropy(DensityMatrix(ico, (d, 2))))
    return ac_series, ico_series


@pytest.mark.parametrize("noise", [0.0, 0.05, 0.3, 1.0])
def test_ac_vs_ico_matches_validated_reference_bit_for_bit(noise):
    rng = np.random.default_rng(60)
    pairs = [(PAULI_X, PAULI_Z), (PAULI_X, PAULI_X),
             (random_unitary(3, rng), random_unitary(3, rng))]
    for u_a, u_b in pairs:
        rep = ac_vs_ico_entropy(u_a, u_b, noise=noise, steps=40)
        ac, ico = _reference_ac_vs_ico(u_a, u_b, noise, 40)
        assert np.array(rep.ac_entropies).tobytes() == np.array(ac).tobytes()
        assert np.array(rep.ico_entropies).tobytes() == np.array(ico).tobytes()


def test_ac_vs_ico_validation_count_does_not_grow_with_steps(validations):
    counts = []
    for steps in (5, 500):
        before = validations[0]
        ac_vs_ico_entropy(PAULI_X, PAULI_Z, noise=0.3, steps=steps)
        counts.append(validations[0] - before)
    assert counts[0] == counts[1]
