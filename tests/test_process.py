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
)
from altcausal import process
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
    minus_outcome_sweep,
    switch_output,
    switch_process_matrix,
    traced_target_channel,
    validate_ocb,
    with_skew_perturbation,
)


def _plus():
    return DensityMatrix.from_state_vector(np.array([1.0, 1.0]) / math.sqrt(2), (2,))


def _apply(c, rho):
    # the Choi contraction E(rho)[a, b] = sum_ij rho[i, j] choi[(i, a), (j, b)]
    choi = c.entries.reshape(c.in_dim, c.out_dim, c.in_dim, c.out_dim)
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
    with pytest.raises(ValueError, match="needs 4 wires, got 2"):
        ProcessMatrix(np.eye(4), (2, 2))


# ---------------------------------------------------------------------------
# alternating family and duality
# ---------------------------------------------------------------------------

def test_family_starts_at_forward_member():
    rng = np.random.default_rng(5)
    w = from_channel_order(random_channel(2, 2, rng), "AB")
    fam = build_alternating_family(w, omega=1.0)
    np.testing.assert_allclose(fam.forward(0.0).entries, w.entries, atol=0)


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
        gap = spectral_norm(fam.forward(t + fam.period).entries - fam.forward(t).entries)
        assert gap < 1e-12


def test_family_members_stay_valid():
    rng = np.random.default_rng(8)
    w = from_channel_order(random_channel(2, 2, rng), "AB")
    fam = build_alternating_family(w, omega=2.0)
    for t in np.linspace(0, fam.period, 9):
        assert validate_ocb(fam.forward(float(t))).valid
        assert validate_ocb(fam.backward(float(t))).valid


def _reference_pair(w_fwd, omega, phase_mode, t):
    """The family's former generator: both members at ``t``, one exponential per entry."""
    base, dims = w_fwd.entries, w_fwd.dims
    if phase_mode == "continuous":
        g = _out_wire_phase_generator(dims)
        gap = g[:, None] - g[None, :]

        def member(s):
            return base * np.exp(-1j * omega * s * gap)
    else:
        swapped = _swap_parties(base, dims)

        def member(s):
            return base if math.cos(omega * s) >= 0 else swapped

    fwd = ProcessMatrix(member(t), dims)
    back = ProcessMatrix(member(-t).conj().T, dims)
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
                assert got.entries.tobytes() == ref.entries.tobytes()
                assert got.dims == ref.dims
                assert validate_ocb(got).valid


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_continuous_members_match_the_per_entry_phase_bit_for_bit(dim):
    # the former member: one exponential per entry of the gap matrix
    rng = np.random.default_rng(140 + dim)
    w = from_channel_order(random_channel(dim, dim, rng), "AB")
    base, dims = w.entries, w.dims
    g = _out_wire_phase_generator(dims)
    gap = g[:, None] - g[None, :]
    for omega in (0.3, 1.0, 2.5, 7.0):
        fam = build_alternating_family(w, omega=omega)
        for t in [*np.linspace(-2 * math.pi, 2 * math.pi, 13), -0.0, 1e-9, -1e3]:
            fwd = base * np.exp(-1j * omega * t * gap)
            back = (base * np.exp(-1j * omega * -t * gap)).conj().T
            assert fam.forward(t).entries.tobytes() == fwd.tobytes()
            assert fam.backward(t).entries.tobytes() == back.tobytes()


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
            assert not member.entries.flags.writeable
            assert not np.shares_memory(member.entries, w.entries)


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
    assert np.isfinite(member.entries).all()
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


def test_second_skew_perturbation_adds_to_the_first():
    rng = np.random.default_rng(11)
    fam = build_alternating_family(from_channel_order(random_channel(2, 2, rng), "AB"), 1.0)
    first = with_skew_perturbation(fam, 1e-3, seed=1)
    twice = with_skew_perturbation(first, 2e-3, seed=2)
    second = with_skew_perturbation(fam, 2e-3, seed=2)
    assert twice.skew.tobytes() == (first.skew + second.skew).tobytes()
    assert fam.skew is None and twice.member is fam.member
    back = fam.backward(0.5).entries
    assert twice.backward(0.5).entries.tobytes() == (back + twice.skew).tobytes()


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, -1e-3, -5e-324])
def test_skew_perturbation_refuses_a_non_finite_or_negative_epsilon(eps):
    rng = np.random.default_rng(11)
    fam = build_alternating_family(from_channel_order(random_channel(2, 2, rng), "AB"), 1.0)
    with pytest.raises(ValueError, match="epsilon must be finite and >= 0"):
        with_skew_perturbation(fam, eps, seed=1)
    assert check_duality(with_skew_perturbation(fam, 0.0, seed=1), np.linspace(0, 6, 13)) == 0.0


@pytest.mark.parametrize("phase_mode", ["continuous", "discrete"])
def test_backward_member_is_the_dagger_of_the_time_reversed_forward(phase_mode):
    rng = np.random.default_rng(13)
    w = from_channel_order(random_channel(2, 2, rng), "AB")
    fam = build_alternating_family(w, omega=1.3, phase_mode=phase_mode)
    for t in [*np.linspace(-7, 7, 15), -0.0, 1e-9]:
        want = fam.forward(-t).entries.conj().T
        assert fam.backward(t).entries.tobytes() == want.tobytes()


def test_skewed_backward_member_builds_one_process_matrix(monkeypatch):
    rng = np.random.default_rng(11)
    w = from_channel_order(random_channel(2, 2, rng), "AB")
    fam = with_skew_perturbation(build_alternating_family(w, omega=1.0), 1e-3, seed=1)
    built = []
    init = ProcessMatrix.__init__
    monkeypatch.setattr(ProcessMatrix, "__init__",
                        lambda self, *args: built.append(self) or init(self, *args))
    fam.backward(0.5)
    assert len(built) == 1


def test_validate_ocb_reports_a_skewed_member_as_not_valid():
    rng = np.random.default_rng(11)
    w = from_channel_order(random_channel(2, 2, rng), "AB")
    bent = with_skew_perturbation(build_alternating_family(w, omega=1.0), 1e-3, seed=1)
    assert validate_ocb(bent.forward(0.5)).valid
    rep = validate_ocb(bent.backward(0.5))
    # the skew-Hermitian offset of norm 1e-3 is the whole anti-Hermitian part
    assert rep.hermiticity_deviation == pytest.approx(2e-3, rel=1e-9)
    assert not rep.valid


def test_family_rejects_bad_omega():
    rng = np.random.default_rng(12)
    w = from_channel_order(random_channel(2, 2, rng), "AB")
    with pytest.raises(ValueError):
        build_alternating_family(w, omega=0.0)
    with pytest.raises(ValueError, match="omega must be positive, got nan"):
        build_alternating_family(w, omega=math.nan)


# ---------------------------------------------------------------------------
# quantum switch
# ---------------------------------------------------------------------------

def _reference_switch_unitary(model):
    """The joint unitary of ``model``, built from scratch."""
    u0 = model.u_b.entries @ model.u_a.entries
    u1 = model.u_a.entries @ model.u_b.entries
    p0 = np.outer(ket(0), ket(0).conj())
    p1 = np.outer(ket(1), ket(1).conj())
    return ComplexOperator(np.kron(u0, p0) + np.kron(u1, p1), (model.target_dim, 2))


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


def _reference_minus_curve(model, target, thetas):
    """The former per-angle sweep of ``altcausal switch``: one control state per angle."""
    curve = []
    for th in thetas:
        v = np.array([math.cos(th), math.sin(th)], dtype=complex)
        v = v / np.linalg.norm(v)
        ctrl = DensityMatrix(np.outer(v, v.conj()), (2,))
        curve.append(control_interference_probabilities(model, target, ctrl)[1])
    return curve


@pytest.mark.parametrize("pair", [(PAULI_X, PAULI_Z), (PAULI_Z, PAULI_Z)],
                         ids=["anticommute", "commute"])
@pytest.mark.parametrize("points", [1, 2, 41, 2000, 20001])
def test_minus_outcome_sweep_matches_the_per_angle_loop_bit_for_bit(pair, points):
    model = build_quantum_switch(*pair)
    target = DensityMatrix.maximally_mixed((2,))
    thetas = np.linspace(0.0, math.pi / 2, points)
    controls = np.array([[math.cos(th), math.sin(th)] for th in thetas])
    got = minus_outcome_sweep(model, target, controls)
    assert type(got) is list and len(got) == points
    assert np.array(got).tobytes() == np.array(_reference_minus_curve(model, target, thetas)).tobytes()


def test_minus_outcome_sweep_matches_one_call_per_complex_control():
    rng = np.random.default_rng(31)
    model = build_quantum_switch(random_unitary(2, rng), random_unitary(2, rng))
    target = random_density_matrix(2, rng)
    controls = rng.normal(size=(300, 2)) + 1j * rng.normal(size=(300, 2))
    want = [control_interference_probabilities(
        model, target, DensityMatrix.from_state_vector(c, (2,)))[1] for c in controls]
    assert np.array(minus_outcome_sweep(model, target, controls)).tobytes() == \
        np.array(want).tobytes()


@pytest.mark.parametrize("target_dim, controls", [(2, np.ones((3, 3))), (2, np.ones(2)),
                                                 (3, np.ones((3, 2)))])
def test_minus_outcome_sweep_refuses_mismatched_dimensions(target_dim, controls):
    # a bad row itself is refused as in from_state_vector (tests/test_qcore.py)
    model = build_quantum_switch(PAULI_X, PAULI_Z)
    with pytest.raises(ValueError, match="dimensions"):
        minus_outcome_sweep(model, DensityMatrix.maximally_mixed((target_dim,)), controls)


def test_switch_unitary_is_unitary():
    rng = np.random.default_rng(17)
    model = build_quantum_switch(random_unitary(2, rng), random_unitary(2, rng))
    s = model.joint
    np.testing.assert_allclose(s @ s.conj().T, np.eye(4), atol=1e-12)
    assert s.tobytes() == _reference_switch_unitary(model).entries.tobytes()
    assert model.joint_dag.tobytes() == s.conj().T.tobytes()
    assert not s.flags.writeable and not model.joint_dag.flags.writeable


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
    s = _reference_switch_unitary(model).entries
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
            got = traced_target_channel(model, control).entries
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
    s = _reference_switch_unitary(model).entries
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


def test_target_control_product_is_np_kron_bit_for_bit():
    rng = np.random.default_rng(58)
    controls = np.array([random_density_matrix(2, rng).entries for _ in range(5)])
    for dim in (2, 3, 4):
        target = random_density_matrix(dim, rng).entries
        got = process._target_control(target, controls)
        assert got.shape == (5, 2 * dim, 2 * dim)
        for product, control in zip(got, controls):
            assert product.tobytes() == np.kron(target, control).tobytes()


def test_ac_vs_ico_start_states_are_the_former_kron_products():
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    for dim in (2, 3):
        target = projector(ket(0, dim)).entries
        ac, ico = process._target_control(target, process._pure_states([[1, 0], [1, 1]]))
        assert ac.tobytes() == np.kron(target, np.outer(ket(0), ket(0).conj())).tobytes()
        assert ico.tobytes() == np.kron(target, np.outer(plus, plus.conj())).tobytes()


def _reference_interference(model, target, control):
    """control_interference_probabilities' former body, projectors built per call."""
    out = _reference_switch_output(model, target, control)
    d = model.target_dim
    p = []
    for v in (np.array([1.0, 1.0], dtype=complex) / math.sqrt(2),
              np.array([1.0, -1.0], dtype=complex) / math.sqrt(2)):
        proj = np.kron(np.eye(d, dtype=complex), np.outer(v, v.conj()))
        p.append(float(np.real(np.trace(proj @ out.entries))))
    return tuple(p)


@pytest.mark.parametrize("pair", [(PAULI_X, PAULI_Z), (PAULI_Z, PAULI_Z)],
                         ids=["anticommute", "commute"])
def test_switch_sweep_matches_the_per_angle_reference_bit_for_bit(pair):
    # the CLI's switch sweep: a maximally mixed target, controls over 200 angles
    model = build_quantum_switch(*pair)
    target = DensityMatrix.maximally_mixed((2,))
    controls = _controls(200)
    got = [control_interference_probabilities(model, target, c) for c in controls]
    want = [_reference_interference(model, target, c) for c in controls]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    for control in controls[::20]:
        assert traced_target_channel(model, control).entries.tobytes() == \
            _reference_traced_target_choi(model, control).tobytes()


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


def _reference_entropy(rho):
    """von_neumann_entropy's former one-state body."""
    lam = np.linalg.eigvalsh((rho.entries + rho.entries.conj().T) / 2)
    assert lam[0] >= -1e-9
    lam = np.clip(lam.real, 0.0, None)
    lam = lam[lam > 0]
    return float(-(lam * np.log2(lam)).sum()) + 0.0


def _reference_ac_vs_ico(u_a, u_b, noise, steps):
    """ac_vs_ico_entropy's former loop: every state built and validated as a DensityMatrix."""
    model = build_quantum_switch(u_a, u_b)
    d = model.target_dim
    mix = np.eye(2 * d, dtype=complex) / (2 * d)
    m_even = np.kron(model.u_a.entries @ model.u_b.entries, np.eye(2, dtype=complex))
    m_odd = np.kron(model.u_b.entries @ model.u_a.entries, np.eye(2, dtype=complex))
    s = _reference_switch_unitary(model).entries
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
        ac_series.append(_reference_entropy(DensityMatrix(ac, (d, 2))))
        ico_series.append(_reference_entropy(DensityMatrix(ico, (d, 2))))
    return ac_series, ico_series


@pytest.mark.parametrize("noise", [0.0, 0.05, 0.3, 1.0, -0.0])
def test_ac_vs_ico_matches_validated_reference_bit_for_bit(noise):
    rng = np.random.default_rng(60)
    pairs = [(PAULI_X, PAULI_Z), (PAULI_X, PAULI_X),
             (random_unitary(3, rng), random_unitary(3, rng)),
             (random_unitary(4, rng), random_unitary(4, rng))]
    for u_a, u_b in pairs:
        rep = ac_vs_ico_entropy(u_a, u_b, noise=noise, steps=40)
        ac, ico = _reference_ac_vs_ico(u_a, u_b, noise, 40)
        assert np.array(rep.ac_entropies).tobytes() == np.array(ac).tobytes()
        assert np.array(rep.ico_entropies).tobytes() == np.array(ico).tobytes()


@pytest.mark.parametrize("steps", [1, 4, 5, 23, 24])
def test_ac_vs_ico_takes_entropies_in_blocks(steps, monkeypatch):
    # blocks of 5 states of side 4: the last block is full at steps 4 and 24
    monkeypatch.setattr(process, "_STACK_ENTRIES", 5 * 16 + 3)
    rep = ac_vs_ico_entropy(PAULI_X, PAULI_Z, noise=0.3, steps=steps)
    ac, ico = _reference_ac_vs_ico(PAULI_X, PAULI_Z, 0.3, steps)
    assert np.array(rep.ac_entropies).tobytes() == np.array(ac).tobytes()
    assert np.array(rep.ico_entropies).tobytes() == np.array(ico).tobytes()


def test_ac_vs_ico_validation_count_does_not_grow_with_steps(validations):
    counts = []
    for steps in (5, 500):
        before = validations[0]
        ac_vs_ico_entropy(PAULI_X, PAULI_Z, noise=0.3, steps=steps)
        counts.append(validations[0] - before)
    assert counts[0] == counts[1]
