"""Dense complex operators, density matrices, and channels.

Everything downstream (process matrices, the photon clock, link
simulations) is built on ``ComplexOperator`` and its checked subclasses
defined here.  Operators carry an explicit tensor factorisation in
``dims`` so that partial traces and subsystem bookkeeping stay
unambiguous.  All values are immutable after construction: the wrapped
arrays are marked read-only and every operation returns a fresh object.

Choi convention used throughout: for a channel ``E`` with input
dimension ``d_in``,

    choi = sum_ij |i><j|_in (x) E(|i><j|)_out

so trace preservation reads ``Tr_out(choi) = I_in``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "ComplexOperator",
    "DensityMatrix",
    "Channel",
    "tensor",
    "partial_trace",
    "von_neumann_entropy",
    "fidelity",
    "spectral_norm",
    "identity",
    "ket",
    "projector",
    "random_unitary",
    "random_density_matrix",
    "random_channel",
    "PAULI_X",
    "PAULI_Z",
]

DEFAULT_TOL = 1e-9

# Entries in the largest stack of matrices a batched computation builds at
# once (4 MB of complex128), so its memory does not grow with its length.
_STACK_ENTRIES = 1 << 18

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True, eq=False)
class ComplexOperator:
    """A square complex matrix together with its tensor factorisation.

    Parameters
    ----------
    entries : array_like
        Square complex matrix of side ``prod(dims)``.
    dims : sequence of int
        Dimension of each tensor factor, every entry >= 2.
    """

    entries: np.ndarray
    dims: tuple[int, ...]

    def __init__(self, entries, dims: Sequence[int]):
        m = np.array(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator must be a square matrix, got shape {m.shape}")
        dims = tuple(int(d) for d in dims)
        if not dims or any(d < 2 for d in dims):
            raise ValueError(f"subsystem dimensions must all be >= 2, got {dims}")
        if math.prod(dims) != m.shape[0]:
            raise ValueError(
                f"dims {dims} imply side {math.prod(dims)}, matrix has side {m.shape[0]}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "dims", dims)

    @classmethod
    def _trusted(cls, entries, dims: Sequence[int]):
        """A value of ``cls`` derived inside the package from a validated one.

        Only for maps that keep values valid, such as a unitary
        conjugation, a depolarizing mix or a normalised outer product:
        makes the read-only copy and shape checks of ``ComplexOperator``,
        but skips the subclass's own eigenvalue and SVD checks.
        """
        op = cls.__new__(cls)
        ComplexOperator.__init__(op, entries, dims)
        return op

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def subsystem_count(self) -> int:
        return len(self.dims)

    def hermiticity_deviation(self) -> float:
        return spectral_norm(self.entries - self.entries.conj().T)

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(_symmetrized(self.entries))[0])


class DensityMatrix(ComplexOperator):
    """A ComplexOperator refined to a valid quantum state.

    Construction checks hermiticity, unit trace, and positivity, each
    within ``DEFAULT_TOL``.
    """

    def __init__(self, entries, dims: Sequence[int]):
        super().__init__(entries, dims)
        dev = self.hermiticity_deviation()
        if dev > DEFAULT_TOL:
            raise ValueError(f"density matrix is not Hermitian: deviation {dev:.3e}")
        _check_unit_traces(self.entries)
        lo = self.min_eigenvalue()
        if lo < -DEFAULT_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {lo:.3e}")

    @classmethod
    def from_state_vector(cls, vec, dims: Sequence[int]) -> "DensityMatrix":
        """The pure state ``|v><v|`` of ``vec`` normalised, checked as ``_pure_states`` does."""
        return cls._trusted(_pure_states([np.ravel(vec)])[0], dims)

    @classmethod
    def maximally_mixed(cls, dims: Sequence[int]) -> "DensityMatrix":
        d = math.prod(dims)
        return cls(np.eye(d, dtype=complex) / d, dims)


class Channel(ComplexOperator):
    """A CPTP map, held as its Choi operator on the two factors (in, out).

    Complete positivity is checked as positivity of the Choi matrix and
    trace preservation as ``Tr_out(choi) = I_in``, both within
    ``DEFAULT_TOL``.
    """

    def __init__(self, entries, dims: Sequence[int]):
        super().__init__(entries, dims)
        if self.subsystem_count != 2:
            raise ValueError(f"a Choi matrix needs 2 factors (in, out), got dims {self.dims}")
        lo = self.min_eigenvalue()
        if lo < -DEFAULT_TOL:
            raise ValueError(f"channel is not completely positive: min eigenvalue {lo:.3e}")
        reduced = partial_trace(self, keep=[0]).entries
        dev = spectral_norm(reduced - np.eye(self.in_dim))
        if dev > DEFAULT_TOL:
            raise ValueError(f"channel is not trace preserving: deviation {dev:.3e}")

    @property
    def in_dim(self) -> int:
        return self.dims[0]

    @property
    def out_dim(self) -> int:
        return self.dims[1]

    @classmethod
    def from_kraus(cls, kraus: Iterable[np.ndarray]) -> "Channel":
        ops = [np.asarray(k, dtype=complex) for k in kraus]
        if not ops:
            raise ValueError("at least one Kraus operator is required")
        out_dim, in_dim = ops[0].shape
        return cls(_choi(in_dim, out_dim, lambda unit: sum(k @ unit @ k.conj().T for k in ops)),
                   (in_dim, out_dim))


def _row_norms(v: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of the complex matrix ``v``, bit for bit.

    For a complex vector numpy takes ``sqrt(re.dot(re) + im.dot(im))``
    with two BLAS dots, so this does too, one row at a time; a stacked
    norm can round the last bit differently.
    """
    return np.sqrt([re.dot(re) + im.dot(im) for re, im in zip(v.real, v.imag)])


def _pure_states(vecs) -> np.ndarray:
    """``|v><v|`` of each row ``v`` of ``vecs`` normalised, as an (n, d, d) stack.

    The outer product of a unit vector is Hermitian and rank one, so
    only what can fail is checked: finite, nonzero rows and unit traces.
    The norm squares the entries, so a row whose largest part lies
    outside [1e-150, 1e150] is first scaled by the exact power of two
    that brings that part into [0.5, 1).
    """
    v = np.array(vecs, dtype=complex)
    if not np.isfinite(v).all():
        raise ValueError("state vector must be finite")
    parts = v.view(float)
    largest = np.abs(parts).max(axis=1, initial=0.0)
    if not largest.all():
        raise ValueError("state vector must be nonzero")
    far = (largest < 1e-150) | (largest > 1e150)
    if far.any():
        parts[far] = np.ldexp(parts[far], -np.frexp(largest[far])[1][:, None])
    with np.errstate(over="ignore"):   # an infinite norm leaves trace 0, refused below
        v /= _row_norms(v)[:, None]
    states = v[:, :, None] * v.conj()[:, None, :]
    _check_unit_traces(states)
    return states


def _check_unit_traces(m: np.ndarray) -> None:
    """Refuse a matrix, or a stack of them, with a trace off 1 by more than ``DEFAULT_TOL``."""
    tr = np.ravel(np.trace(m, axis1=-2, axis2=-1))
    bad = np.flatnonzero(abs(tr - 1.0) > DEFAULT_TOL)
    if bad.size:
        raise ValueError(f"density matrix trace {tr[bad[0]]:.6f} differs from 1")


def _choi(in_dim: int, out_dim: int, image) -> np.ndarray:
    """``sum_ij |i><j| (x) image(|i><j|)``: the Choi matrix of the map ``image``."""
    choi = np.zeros((in_dim * out_dim, in_dim * out_dim), dtype=complex)
    for i in range(in_dim):
        for j in range(in_dim):
            unit = np.zeros((in_dim, in_dim), dtype=complex)
            unit[i, j] = 1.0
            choi += np.kron(unit, image(unit))
    return choi


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _symmetrized(m: np.ndarray) -> np.ndarray:
    # Eigendecompositions are always taken on the symmetrized matrix so
    # that float-level asymmetry cannot leak into eigenvalues.  Works on
    # a stack of matrices too.
    return (m + np.swapaxes(m.conj(), -1, -2)) / 2


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value; the norm used for every deviation report."""
    if not np.any(m):
        return 0.0
    return float(np.linalg.norm(m, ord=2))


def tensor(a: ComplexOperator, b: ComplexOperator) -> ComplexOperator:
    """Kronecker product; dims concatenate."""
    return ComplexOperator(np.kron(a.entries, b.entries), a.dims + b.dims)


def partial_trace(m: ComplexOperator, keep: Sequence[int]) -> ComplexOperator:
    """Trace out every subsystem not listed in ``keep``.

    Parameters
    ----------
    m : ComplexOperator
    keep : sequence of int
        Indices into ``m.dims`` to retain.  Order of the retained
        factors follows their original order in ``m.dims``.

    Returns
    -------
    ComplexOperator on the retained factors.  Total trace is preserved.
    """
    n = m.subsystem_count
    keep_sorted = sorted(set(int(i) for i in keep))
    if keep_sorted and (keep_sorted[0] < 0 or keep_sorted[-1] >= n):
        raise ValueError(f"keep indices {keep_sorted} out of range for {n} subsystems")
    if not keep_sorted:
        raise ValueError("must keep at least one subsystem")
    if len(keep_sorted) == n:
        return ComplexOperator(m.entries, m.dims)

    dims = list(m.dims)
    t = m.entries.reshape(*dims, *dims)
    for idx in sorted(set(range(n)) - set(keep_sorted), reverse=True):
        t = np.trace(t, axis1=idx, axis2=idx + len(dims))
        dims.pop(idx)
    side = math.prod(dims)
    return ComplexOperator(t.reshape(side, side), dims)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy -sum(lam log2 lam) in bits, with 0 log 0 = 0."""
    return float(_entropies(rho.entries)[0])


def _entropies(states: np.ndarray) -> np.ndarray:
    """The ``von_neumann_entropy`` column of a (..., n, n) stack, one eigvalsh for all.

    Each entropy sums only its positive eigenvalues, as a row of its own,
    so every value has the bits a one-state evaluation gives.
    """
    n = states.shape[-1]
    lam = np.linalg.eigvalsh(_symmetrized(states)).reshape(-1, n)
    bad = np.flatnonzero(lam[:, 0] < -DEFAULT_TOL)
    if bad.size:
        raise ValueError(f"state has negative eigenvalue {lam[bad[0], 0]:.3e}")
    lam = np.clip(lam.real, 0.0, None)
    # eigvalsh sorts ascending, so the positive eigenvalues end each row
    positive = (lam > 0).sum(axis=1)
    out = np.empty(len(lam))
    for k in np.flatnonzero(np.bincount(positive)):   # np.unique would load numpy.ma
        rows = positive == k
        part = lam[rows, n - k:]
        out[rows] = -(part * np.log2(part)).sum(axis=1)
    # the +0.0 turns the -0.0 of exactly pure states into +0.0
    return out + 0.0


def _noisy_orbit(rho: np.ndarray, unitaries: Iterable[tuple[np.ndarray, np.ndarray]],
                 p: float) -> Iterator[np.ndarray]:
    """The state after each ``(u, u_dag)`` of ``unitaries``: a conjugation, then noise.

    Each step is ``u @ rho @ u_dag`` followed by the depolarizing mix
    ``(1 - p) * rho + p * I/d``, skipped when ``p`` is zero of either
    sign.  Every density-matrix recurrence steps through here, so this
    operation order fixes the bits of their reports.
    """
    d = rho.shape[-1]
    mixed = p * (np.eye(d, dtype=complex) / d)
    for u, u_dag in unitaries:
        rho = u @ rho @ u_dag
        if p != 0.0:
            rho = (1 - p) * rho + mixed
        yield rho


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    lam, vec = np.linalg.eigh(_symmetrized(m))
    lam = np.clip(lam, 0.0, None)
    return (vec * np.sqrt(lam)) @ vec.conj().T


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, in [0, 1]."""
    if rho.dim != sigma.dim:
        raise ValueError("states must have equal dimension")
    root = _psd_sqrt(rho.entries)
    inner = _psd_sqrt(root @ sigma.entries @ root)
    val = float(np.real(inner.trace())) ** 2
    return min(max(val, 0.0), 1.0)


# ---------------------------------------------------------------------------
# constructors and random instances
# ---------------------------------------------------------------------------

def identity(dims: Sequence[int]) -> ComplexOperator:
    d = math.prod(dims)
    return ComplexOperator(np.eye(d, dtype=complex), dims)


def ket(index: int, dim: int = 2) -> np.ndarray:
    """Computational basis column vector |index> in the given dimension."""
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dimension {dim}")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def projector(vec: np.ndarray) -> DensityMatrix:
    v = np.asarray(vec, dtype=complex).reshape(-1)
    return DensityMatrix.from_state_vector(v, (v.size,))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    phase = np.diag(r).copy()
    phase /= np.abs(phase)
    return q * phase


def random_density_matrix(dim: int, rng: np.random.Generator) -> DensityMatrix:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace(), (dim,))


def random_channel(in_dim: int, out_dim: int, rng: np.random.Generator) -> Channel:
    """Random CPTP map of Kraus rank ``in_dim`` from a Haar-random Stinespring isometry."""
    big = random_unitary(out_dim * in_dim, rng)
    # Isometry = first in_dim columns; Kraus blocks are its row groups.
    iso = big[:, :in_dim]
    kraus = [iso[e * out_dim:(e + 1) * out_dim, :] for e in range(in_dim)]
    return Channel.from_kraus(kraus)
