import math

import numpy as np
import pytest

from altcausal.qcore import (
    Channel,
    ComplexOperator,
    _entropies,
    _pure_states,
    _row_norms,
    DensityMatrix,
    PAULI_X,
    PAULI_Z,
    fidelity,
    identity,
    ket,
    partial_trace,
    projector,
    random_channel,
    random_density_matrix,
    random_unitary,
    spectral_norm,
    tensor,
    von_neumann_entropy,
)

# closed-form targets, worked out from the defining formulas
ENTROPY_75_25 = 0.8112781244591328       # -0.75 log2 0.75 - 0.25 log2 0.25
FID_PURE_VS_MIXED = 0.5                  # <0| I/2 |0>


def _apply(c, rho):
    # the Choi contraction E(rho)[a, b] = sum_ij rho[i, j] choi[(i, a), (j, b)]
    choi = c.entries.reshape(c.in_dim, c.out_dim, c.in_dim, c.out_dim)
    return DensityMatrix(np.einsum("ij,iajb->ab", rho.entries, choi), (c.out_dim,))


def test_operator_entries_are_immutable():
    op = ComplexOperator(np.eye(2), (2,))
    with pytest.raises(ValueError):
        op.entries[0, 0] = 5.0


def test_operator_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        ComplexOperator(np.eye(4), (2, 3))
    with pytest.raises(ValueError):
        ComplexOperator(np.ones((2, 3)), (2,))


def test_density_matrix_validation():
    DensityMatrix(np.diag([0.5, 0.5]), (2,))
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([0.9, 0.2]), (2,))       # trace != 1
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]), (2,))      # negative eigenvalue
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.5], [0.1, 0.5]]), (2,))  # not hermitian


def test_from_state_vector_normalizes():
    rho = DensityMatrix.from_state_vector([2.0, 0.0], (2,))
    np.testing.assert_allclose(rho.entries, projector(ket(0)).entries, atol=1e-14)


def _reference_pure_state(vec, dims):
    """from_state_vector's former body: the normalised outer product, fully validated."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    v = v / np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()), dims)


def test_from_state_vector_matches_validated_reference_bit_for_bit():
    rng = np.random.default_rng(14)
    vecs = [([1.0, 1.0], (2,)), ([math.cos(0.3), math.sin(0.3)], (2,)), ([0.0, 1j], (2,))]
    for dims in [(2,), (3,), (2, 2), (2, 3)]:
        d = math.prod(dims)
        for scale in (1.0, 1e-100, 1e-5, 7.0, 1e100):
            vecs.append((scale * (rng.normal(size=d) + 1j * rng.normal(size=d)), dims))
            vecs.append((scale * rng.normal(size=d), dims))
        for largest in (1e-150, 3e-120, 9e99, 1e150):   # in range, the edges included
            u = rng.normal(size=d) + 1j * rng.normal(size=d)
            u *= largest / np.abs(u.view(float)).max()
            assert 1e-150 <= np.abs(u.view(float)).max() <= 1e150
            vecs.append((u, dims))
    for vec, dims in vecs:
        fast = DensityMatrix.from_state_vector(vec, dims)
        slow = _reference_pure_state(vec, dims)
        assert type(fast) is DensityMatrix
        assert fast.dims == slow.dims
        assert fast.entries.tobytes() == slow.entries.tobytes()
        assert not fast.entries.flags.writeable


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("vec, match", [
    ([math.nan, 1.0], "finite"),
    ([1.0, complex(0.0, math.nan)], "finite"),
    ([math.inf, 1.0], "finite"),
    ([-math.inf, 0.0], "finite"),
    ([0.0, 0.0], "nonzero"),
    ([0.0, -0.0j], "nonzero"),
])
def test_from_state_vector_rejects_what_cannot_be_normalised(vec, match):
    with pytest.raises(ValueError, match=match):
        DensityMatrix.from_state_vector(vec, (2,))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("vec, expected", [
    ([1e308, 1e308], [0.5, 0.5]),               # the unscaled norm overflows to inf
    ([1e-160, 0.0], [1.0, 0.0]),                # the unscaled norm loses digits
    ([1e-200, 0.0], [1.0, 0.0]),                # the unscaled norm underflows to 0
    ([1e200, 0.0], [1.0, 0.0]),
    ([5e-324, 0.0], [1.0, 0.0]),                # the smallest subnormal
    ([0.0, complex(1.7e308, -1.7e308)], [0.0, 1.0]),
    ([3e-170, 4e-170j], [0.36, 0.64]),
])
def test_from_state_vector_accepts_every_finite_nonzero_vector(vec, expected):
    rho = DensityMatrix.from_state_vector(vec, (2,))
    np.testing.assert_allclose(np.diag(rho.entries).real, expected, rtol=1e-15, atol=1e-16)
    assert abs(np.trace(rho.entries) - 1.0) <= 1e-15


def test_from_state_vector_is_invariant_under_powers_of_two():
    # entries of comparable size stay normal floats at every scale tried,
    # so a rescaled vector normalises to the same bytes
    rng = np.random.default_rng(15)
    for dims in [(2,), (3,), (2, 2)]:
        d = math.prod(dims)
        for vec in (rng.uniform(0.5, 2.0, d) * rng.choice([-1.0, 1.0], d),
                    rng.uniform(0.5, 2.0, d) * np.exp(1j * rng.uniform(0.0, 2 * math.pi, d))):
            want = DensityMatrix.from_state_vector(vec, dims).entries.tobytes()
            for k in range(-1000, 1001, 37):
                got = DensityMatrix.from_state_vector(vec * 2.0 ** k, dims)
                assert got.entries.tobytes() == want, (dims, k)


@pytest.mark.filterwarnings("error")
def test_stacked_pure_states_match_one_vector_at_a_time_bit_for_bit():
    # complex rows of every size class, the scaled ones among unscaled ones
    rng = np.random.default_rng(16)
    for d in (2, 3, 4):
        rows = rng.normal(size=(60, d)) + 1j * rng.normal(size=(60, d))
        rows *= rng.choice([1.0, 1e-200, 1e-140, 3e120, 1e200], size=60)[:, None]
        before = rows.copy()
        stacked = _pure_states(rows)
        assert rows.tobytes() == before.tobytes()   # the caller's rows are left as they were
        assert stacked.shape == (60, d, d)
        for row, state in zip(rows, stacked):
            assert state.tobytes() == DensityMatrix.from_state_vector(row, (d,)).entries.tobytes()


def test_row_norms_match_numpy_norm_row_by_row_bit_for_bit():
    # np.linalg.norm per row is the reference that _row_norms replaces
    rng = np.random.default_rng(21)
    n = 20_001
    cases = [rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))]
    for d in (1, 3, 4, 8):
        rows = rng.normal(size=(300, d)) + 1j * rng.normal(size=(300, d))
        # largest parts just inside and outside the [1e-150, 1e150] window of
        # _pure_states, and where it puts a rescaled row
        scale = rng.choice([1.0, 0.9e150, 1.1e150, 0.9e-150, 1.1e-150, 0.6, 0.99], size=300)
        cases += [rows * scale[:, None], rows.real.astype(complex)]   # and real-only rows
    thetas = np.linspace(0.0, math.pi / 2, 2001)   # the switch's controls
    cases.append(np.array([[math.cos(t), math.sin(t)] for t in thetas], dtype=complex))
    cases.append(np.array([[1.0, 5e-324], [0.75, 3e-310j], [2e-308 + 5e-324j, 1e-320],
                           [5e-324j, 0.0], [1e-300, 1e-310 + 1e-315j]]))   # subnormal parts
    for rows in cases:
        want = np.array([np.linalg.norm(row) for row in rows])
        assert _row_norms(rows).tobytes() == want.tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("row, match", [([math.nan, 1.0], "finite"), ([0.0, 0.0], "nonzero")])
def test_stacked_pure_states_refuse_a_bad_row_anywhere(row, match):
    rows = np.array([[1.0, 0.0], row, [0.0, 1.0]])
    with pytest.raises(ValueError, match=match):
        _pure_states(rows)


def test_from_state_vector_takes_no_spectrum(monkeypatch):
    calls = []
    monkeypatch.setattr(ComplexOperator, "min_eigenvalue", lambda self: calls.append(self))
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a))
    for th in np.linspace(0.0, math.pi / 2, 9):
        DensityMatrix.from_state_vector([math.cos(th), math.sin(th)], (2,))
    assert calls == []


def test_entropy_oracles():
    assert von_neumann_entropy(projector(ket(0))) == 0.0
    assert von_neumann_entropy(DensityMatrix.maximally_mixed((2,))) == pytest.approx(1.0, abs=1e-12)
    rho = DensityMatrix(np.diag([0.75, 0.25]), (2,))
    assert von_neumann_entropy(rho) == pytest.approx(ENTROPY_75_25, abs=1e-12)


def _reference_entropy(m):
    """von_neumann_entropy's former one-state body."""
    lam = np.linalg.eigvalsh((m + m.conj().T) / 2)
    lam = np.clip(lam.real, 0.0, None)
    lam = lam[lam > 0]
    return float(-(lam * np.log2(lam)).sum()) + 0.0


@pytest.mark.parametrize("dim", [2, 3, 4, 8, 9, 17])
def test_stacked_entropies_match_the_one_state_body_bit_for_bit(dim):
    # ranks from 1 to dim, so rows keep different numbers of positive eigenvalues
    rng = np.random.default_rng(90 + dim)
    states = []
    for rank in [*range(1, dim + 1)] * 3:
        g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
        m = g @ g.conj().T
        states.append(m / m.trace())
    states.append(np.eye(dim, dtype=complex) / dim)
    stack = np.array(states)
    want = [_reference_entropy(m) for m in stack]
    assert np.array(_entropies(stack)).tobytes() == np.array(want).tobytes()
    assert [von_neumann_entropy(DensityMatrix._trusted(m, (dim,))) for m in stack] == want


def test_stacked_entropies_refuse_the_first_negative_state():
    stack = np.array([np.diag([1.0, 0.0]), np.diag([1.5, -0.5]), np.diag([2.0, -1.0])],
                     dtype=complex)
    with pytest.raises(ValueError, match="negative eigenvalue -5.000e-01"):
        _entropies(stack)


def test_entropy_unitary_invariance():
    rng = np.random.default_rng(11)
    rho = random_density_matrix(4, rng)
    u = random_unitary(4, rng)
    rotated = DensityMatrix(u @ rho.entries @ u.conj().T, (4,))
    assert von_neumann_entropy(rotated) == pytest.approx(von_neumann_entropy(rho), abs=1e-10)


def test_fidelity_oracles():
    p0, p1 = projector(ket(0)), projector(ket(1))
    mixed = DensityMatrix.maximally_mixed((2,))
    assert fidelity(p0, p0) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(p0, p1) == pytest.approx(0.0, abs=1e-12)
    assert fidelity(p0, mixed) == pytest.approx(FID_PURE_VS_MIXED, abs=1e-12)


def test_fidelity_symmetric_on_random_states():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = random_density_matrix(3, rng)
        b = random_density_matrix(3, rng)
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-10)
        assert 0.0 <= fidelity(a, b) <= 1.0


def test_partial_trace_oracle():
    # Tr_2 of rho (x) sigma = rho * Tr(sigma)
    rng = np.random.default_rng(3)
    rho = random_density_matrix(2, rng)
    sigma = random_density_matrix(3, rng)
    joint = tensor(rho, sigma)
    left = partial_trace(joint, keep=[0])
    np.testing.assert_allclose(left.entries, rho.entries, atol=1e-12)
    right = partial_trace(joint, keep=[1])
    np.testing.assert_allclose(right.entries, sigma.entries, atol=1e-12)


def test_partial_trace_complementary_sets_compose_to_scalar():
    rng = np.random.default_rng(4)
    m = ComplexOperator(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)), (2, 2, 2))
    total = np.trace(m.entries)
    reduced = partial_trace(m, keep=[1])
    assert np.trace(reduced.entries) == pytest.approx(total, abs=1e-12)


def test_partial_trace_keeps_factor_order():
    a = DensityMatrix(np.diag([1.0, 0.0]), (2,))
    b = DensityMatrix(np.diag([0.0, 1.0]), (2,))
    c = DensityMatrix.maximally_mixed((2,))
    joint = tensor(tensor(a, b), c)
    kept = partial_trace(joint, keep=[0, 1])
    np.testing.assert_allclose(kept.entries, tensor(a, b).entries, atol=1e-12)
    assert kept.dims == (2, 2)


def test_bell_state_marginal_is_mixed():
    bell = DensityMatrix.from_state_vector(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2))
    marg = partial_trace(bell, keep=[0])
    np.testing.assert_allclose(marg.entries, np.eye(2) / 2, atol=1e-12)


def test_unitary_channel_matches_conjugation():
    rng = np.random.default_rng(6)
    u = random_unitary(3, rng)
    rho = random_density_matrix(3, rng)
    out = _apply(Channel.from_kraus([u]), rho)
    np.testing.assert_allclose(out.entries, u @ rho.entries @ u.conj().T, atol=1e-12)


def test_channel_rejects_non_trace_preserving_kraus():
    with pytest.raises(ValueError):
        Channel.from_kraus([0.5 * np.eye(2)])


def test_channel_refuses_a_choi_matrix_with_three_factors():
    depolarizing = Channel(np.eye(4) / 2, (2, 2))
    assert isinstance(depolarizing, ComplexOperator)
    assert (depolarizing.in_dim, depolarizing.out_dim) == (2, 2)
    with pytest.raises(ValueError, match="needs 2 factors"):
        Channel(np.eye(8) / 4, (2, 2, 2))


def test_random_channels_preserve_trace_and_positivity():
    rng = np.random.default_rng(8)
    for _ in range(10):
        c = random_channel(2, 2, rng)
        rho = random_density_matrix(2, rng)
        out = _apply(c, rho)
        assert np.trace(out.entries).real == pytest.approx(1.0, abs=1e-10)
        assert out.min_eigenvalue() > -1e-10


def _reference_kraus_choi(ops):
    """Channel.from_kraus's former loop: sum_ij |i><j| (x) sum_k K |i><j| K^dagger."""
    out_dim, in_dim = ops[0].shape
    choi = np.zeros((in_dim * out_dim, in_dim * out_dim), dtype=complex)
    for i in range(in_dim):
        for j in range(in_dim):
            unit = np.zeros((in_dim, in_dim), dtype=complex)
            unit[i, j] = 1.0
            block = sum(k @ unit @ k.conj().T for k in ops)
            eij = np.zeros((in_dim, in_dim), dtype=complex)
            eij[i, j] = 1.0
            choi += np.kron(eij, block)
    return choi


@pytest.mark.parametrize("in_dim, out_dim", [(2, 2), (3, 3), (2, 3)])
def test_random_channel_choi_matches_the_reference_loop_bit_for_bit(in_dim, out_dim):
    for seed in range(5):
        # random_channel's Kraus operators: row blocks of a Stinespring isometry
        iso = random_unitary(out_dim * in_dim, np.random.default_rng(seed))[:, :in_dim]
        kraus = [iso[e * out_dim:(e + 1) * out_dim, :] for e in range(in_dim)]
        got = random_channel(in_dim, out_dim, np.random.default_rng(seed)).entries
        assert got.tobytes() == _reference_kraus_choi(kraus).tobytes()


def test_rectangular_channel_dims():
    rng = np.random.default_rng(9)
    c = random_channel(2, 3, rng)
    out = _apply(c, random_density_matrix(2, rng))
    assert out.dim == 3
    assert np.trace(out.entries).real == pytest.approx(1.0, abs=1e-10)


def test_spectral_norm_matches_singular_value():
    rng = np.random.default_rng(10)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    assert spectral_norm(m) == pytest.approx(np.linalg.svd(m, compute_uv=False)[0], rel=1e-12)
    assert spectral_norm(np.zeros((3, 3))) == 0.0


def test_pauli_anticommutation():
    np.testing.assert_allclose(PAULI_X @ PAULI_Z + PAULI_Z @ PAULI_X, np.zeros((2, 2)), atol=0)


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(13)
    u = random_unitary(6, rng)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(6), atol=1e-12)


def test_identity_helper_dims():
    op = identity((2, 3))
    assert op.dim == 6
    np.testing.assert_allclose(op.entries, np.eye(6))
