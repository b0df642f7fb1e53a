import math

import numpy as np
import pytest

from altcausal.qcore import (
    Channel,
    ComplexOperator,
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
    choi = c.choi.entries.reshape(c.in_dim, c.out_dim, c.in_dim, c.out_dim)
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
    ([1e308, 1e308], "trace"),      # the norm overflows to inf
    ([1e-160, 0.0], "trace"),       # the norm underflows and loses digits
    ([0.0, 0.0], "nonzero"),
])
def test_from_state_vector_rejects_what_cannot_be_normalised(vec, match):
    with pytest.raises(ValueError, match=match):
        DensityMatrix.from_state_vector(vec, (2,))


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


def test_random_channels_preserve_trace_and_positivity():
    rng = np.random.default_rng(8)
    for _ in range(10):
        c = random_channel(2, 2, rng)
        rho = random_density_matrix(2, rng)
        out = _apply(c, rho)
        assert np.trace(out.entries).real == pytest.approx(1.0, abs=1e-10)
        assert out.min_eigenvalue() > -1e-10


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
