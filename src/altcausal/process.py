"""Process matrices, time-reversal duality families, and the order switch.

A process matrix here is a positive Hermitian operator on the four
labelled wires (A_in, A_out, B_in, B_out) that is simultaneously the
Choi matrix of a trace-preserving map from the in-labelled wires to the
out-labelled wires.  Concretely, a forward (A to B) process built from a
channel ``c`` has the shape

    W_AB = choi(c) on (A_in, B_out)  (x)  tau on A_out  (x)  I on B_in

with ``tau`` a unit-trace state on the wire delivered back to the
sender's side and an unnormalised identity on the receiver's unused
emission wire.  Tracing the out wires then gives the identity on the in
wires for every trace-preserving ``c``, which is the validity condition
``validate_ocb`` reports on.

The reverse orientation is the adjoint under time reversal:
``W_BA(t) = W_AB(-t)^dagger``.  ``build_alternating_family`` realises
the time dependence as phase conjugation by ``exp(-i omega t G)`` with
``G`` an integer-spectrum generator supported on the out wires, so both
orientations stay valid at every instant and the duality holds exactly.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .qcore import (
    DEFAULT_TOL,
    Channel,
    ComplexOperator,
    DensityMatrix,
    _STACK_ENTRIES,
    _choi,
    _entropies,
    _noisy_orbit,
    _pure_states,
    identity,
    ket,
    partial_trace,
    projector,
    spectral_norm,
    tensor,
)

__all__ = [
    "ROLES",
    "ProcessMatrix",
    "ValidityReport",
    "ProcessFamily",
    "SwitchModel",
    "ComparisonReport",
    "validate_ocb",
    "from_channel_order",
    "build_alternating_family",
    "check_duality",
    "duality_deviations",
    "with_skew_perturbation",
    "build_quantum_switch",
    "switch_output",
    "control_interference_probabilities",
    "minus_outcome_sweep",
    "traced_target_channel",
    "switch_process_matrix",
    "ac_vs_ico_entropy",
]

ROLES = ("A_in", "A_out", "B_in", "B_out")


class ProcessMatrix(ComplexOperator):
    """An operator on the four process wires (A_in, A_out, B_in, B_out).

    Construction checks the wiring only; ``validate_ocb`` measures the
    process conditions.  ``from_channel_order`` builds valid processes
    from a validated channel, and family members are unitary conjugates
    or daggers of those.
    """

    def __init__(self, entries, dims: Sequence[int]):
        super().__init__(entries, dims)
        if self.subsystem_count != len(ROLES):
            raise ValueError(f"process matrix needs {len(ROLES)} wires, got {self.subsystem_count}")


@dataclass(frozen=True)
class ValidityReport:
    """Deviations from the three process-matrix conditions."""

    hermiticity_deviation: float
    min_eigenvalue: float
    normalization_deviation: float
    tol: float
    valid: bool


def validate_ocb(w: ProcessMatrix) -> ValidityReport:
    """Check Hermiticity, positivity, and the in/out trace condition, within ``DEFAULT_TOL``.

    The normalization condition is that tracing every out-labelled wire
    leaves the identity on the in-labelled wires, i.e. the local
    probability rule is normalised for all trace-preserving parties.
    """
    herm = w.hermiticity_deviation()
    lo = w.min_eigenvalue()
    in_wires = [i for i, r in enumerate(ROLES) if r.endswith("_in")]
    reduced = partial_trace(w, keep=in_wires).entries
    d_in = reduced.shape[0]
    norm_dev = spectral_norm(reduced - np.eye(d_in))
    valid = herm <= DEFAULT_TOL and lo >= -DEFAULT_TOL and norm_dev <= DEFAULT_TOL
    return ValidityReport(
        hermiticity_deviation=herm,
        min_eigenvalue=lo,
        normalization_deviation=norm_dev,
        tol=DEFAULT_TOL,
        valid=valid,
    )


def _permute_subsystems(entries: np.ndarray, dims: Sequence[int],
                        perm: Sequence[int]) -> np.ndarray:
    """Reorder tensor factors so new factor i is old factor perm[i]."""
    dims = list(dims)
    n = len(dims)
    t = entries.reshape(*dims, *dims)
    axes = list(perm) + [p + n for p in perm]
    t = np.transpose(t, axes)
    side = math.prod(dims)
    return t.reshape(side, side)


def from_channel_order(c: Channel, order: str = "AB") -> ProcessMatrix:
    """Build the definite-order process matrix carrying ``c``.

    Parameters
    ----------
    c : Channel
        The link channel from the sender's emission wire to the
        receiver's delivery wire.
    order : {"AB", "BA"}
        "AB" routes A's emission through ``c`` to B, "BA" the reverse.

    The sender-side delivery wire carries the maximally mixed state of
    the sender's dimension.  ``c`` was validated when it was built, so
    the result passes ``validate_ocb`` and is not checked again.
    """
    if order not in ("AB", "BA"):
        raise ValueError(f"order must be 'AB' or 'BA', got {order!r}")
    # The sender's wires carry the channel input dimension, the
    # receiver's its output dimension.
    tau = DensityMatrix.maximally_mixed((c.in_dim,))
    ident = identity((c.out_dim,))
    raw = tensor(tensor(c, tau), ident)
    if order == "AB":
        # kron order (A_in, B_out, A_out, B_in) -> (A_in, A_out, B_in, B_out)
        perm, dims = (0, 2, 3, 1), (c.in_dim, c.in_dim, c.out_dim, c.out_dim)
    else:
        # kron order (B_in, A_out, B_out, A_in) -> (A_in, A_out, B_in, B_out)
        perm, dims = (3, 1, 0, 2), (c.out_dim, c.out_dim, c.in_dim, c.in_dim)
    return ProcessMatrix(_permute_subsystems(raw.entries, raw.dims, perm), dims)


# ---------------------------------------------------------------------------
# duality families
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ProcessFamily:
    """One-parameter family of paired orientations.

    ``member(t)`` gives the forward entries at time ``t``; the backward
    member follows by the dagger rule as ``member(-t)^dagger`` (plus
    ``skew``, an injected fault).  ``period`` is the recurrence time.
    """

    member: Callable[[float], np.ndarray]
    dims: tuple[int, ...]
    period: float
    skew: np.ndarray | None = None

    def forward(self, t: float) -> ProcessMatrix:
        return ProcessMatrix(self.member(t), self.dims)

    def backward(self, t: float) -> ProcessMatrix:
        entries = self.member(-t).conj().T
        return ProcessMatrix(entries if self.skew is None else entries + self.skew, self.dims)


def _out_wire_phase_generator(dims: Sequence[int]) -> np.ndarray:
    """Diagonal integer generator supported on the out wires.

    Eigenvalues are sums of basis indices over the out-labelled factors,
    so exp(-2 pi i G) is the identity and conjugation leaves the partial
    trace over the out wires untouched.
    """
    n = len(dims)
    out_wires = [i for i, r in enumerate(ROLES) if r.endswith("_out")]
    g = np.zeros(dims, dtype=float)
    for axis in out_wires:
        shape = [1] * n
        shape[axis] = dims[axis]
        g = g + np.arange(dims[axis]).reshape(shape)
    return g.reshape(-1)


def _swap_parties(entries: np.ndarray, dims: Sequence[int]) -> np.ndarray:
    # (A_in, A_out, B_in, B_out) -> (B_in, B_out, A_in, A_out)
    return _permute_subsystems(entries, dims, (2, 3, 0, 1))


def build_alternating_family(w_fwd: ProcessMatrix, omega: float,
                             phase_mode: str = "continuous") -> ProcessFamily:
    """Embed a forward process into a dual alternating family.

    Continuous mode conjugates by the diagonal phase ``exp(-i omega t G)``
    with the out-wire generator G, which interpolates the orientation
    with a phase factor of frequency ``omega`` while keeping every
    sampled member a valid process matrix.  Discrete mode swaps the two
    party slots once per half period instead.  In both modes the
    backward member is defined as ``forward(-t)^dagger``, so the
    duality holds identically and ``forward(0)`` is ``w_fwd``.
    """
    if not omega > 0:
        raise ValueError(f"omega must be positive, got {omega}")
    if phase_mode not in ("continuous", "discrete"):
        raise ValueError(f"phase_mode must be 'continuous' or 'discrete', got {phase_mode!r}")
    period = 2 * math.pi / omega
    if not math.isfinite(period):
        raise ValueError(f"period 2 pi / omega overflows at omega = {omega!r}; raise omega")
    base = w_fwd.entries
    dims = w_fwd.dims

    if phase_mode == "continuous":
        g = _out_wire_phase_generator(dims)
        gap = g[:, None] - g[None, :]
        widest = float(np.abs(gap).max())
        # gap takes few distinct values (13 at d = 4): exponentiate those
        # and gather, rather than one exponential per entry
        levels, where = np.unique(gap, return_inverse=True)
        where = where.reshape(gap.shape)

        def member(t: float) -> np.ndarray:
            _check_phase(omega, t, widest)
            return base * np.exp(-1j * omega * t * levels)[where]
    else:
        if dims[0] != dims[2] or dims[1] != dims[3]:
            raise ValueError("discrete swap requires equal A and B wire dimensions")
        swapped = _swap_parties(base, dims)

        def member(t: float) -> np.ndarray:
            _check_phase(omega, t, 1.0)
            return base if math.cos(omega * t) >= 0 else swapped

    return ProcessFamily(member, dims, period)


def _check_phase(omega: float, t: float, widest: float) -> None:
    """Refuse a time at which the member phase ``omega * t * gap`` overflows.

    The phase is largest at the widest gap, so checking that one product
    covers the whole member; an overflow would otherwise surface as numpy
    warnings and NaN members.
    """
    if not math.isfinite(omega * float(t) * widest):
        raise ValueError(f"phase omega * t overflows at omega = {omega!r}, t = {float(t)!r}; "
                         "lower omega or the sampled times")


def check_duality(fam: ProcessFamily, ts: Sequence[float]) -> float:
    """Max over ``ts`` of || backward(t) - forward(-t)^dagger ||.

    Zero for a family that satisfies the time-reversal duality exactly.
    """
    return max(duality_deviations(fam, ts))


def duality_deviations(fam: ProcessFamily, ts: Sequence[float]) -> list[float]:
    """|| backward(t) - forward(-t)^dagger || at each time in ``ts``."""
    if len(ts) == 0:
        raise ValueError("need at least one sample time")
    return [spectral_norm(fam.backward(float(t)).entries
                          - fam.forward(-float(t)).entries.conj().T) for t in ts]


def with_skew_perturbation(fam: ProcessFamily, epsilon: float,
                           seed: int = 0) -> ProcessFamily:
    """Fault injection: offset the backward member by a skew-Hermitian term.

    The perturbation has unit spectral norm, so the duality deviation of
    the returned family is ``epsilon`` up to float error.  A second
    perturbation adds to the first.
    """
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
    d = math.prod(fam.dims)
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    skew = (g - g.conj().T) / 2
    skew /= spectral_norm(skew)
    offset = epsilon * skew
    return replace(fam, skew=offset if fam.skew is None else fam.skew + offset)


# ---------------------------------------------------------------------------
# the order switch
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SwitchModel:
    """Coherent order switch for two unitaries on a shared target.

    ``joint`` is the switch unitary on target (x) control and
    ``joint_dag`` its dagger, both read-only arrays built once with the
    model: control |0> applies u_b u_a, control |1> applies u_a u_b.
    """

    u_a: ComplexOperator
    u_b: ComplexOperator
    joint: np.ndarray = field(init=False, repr=False)
    joint_dag: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        u0 = self.u_b.entries @ self.u_a.entries
        u1 = self.u_a.entries @ self.u_b.entries
        p0 = np.outer(ket(0), ket(0).conj())
        p1 = np.outer(ket(1), ket(1).conj())
        joint = np.kron(u0, p0) + np.kron(u1, p1)
        joint_dag = joint.conj().T
        joint.setflags(write=False)
        joint_dag.setflags(write=False)
        object.__setattr__(self, "joint", joint)
        object.__setattr__(self, "joint_dag", joint_dag)

    @property
    def target_dim(self) -> int:
        return self.u_a.dim


def _as_unitary_operator(u) -> ComplexOperator:
    if not isinstance(u, ComplexOperator):
        u = ComplexOperator(u, (np.asarray(u).shape[0],))
    dev = spectral_norm(u.entries.conj().T @ u.entries - np.eye(u.dim))
    if dev > DEFAULT_TOL:
        raise ValueError(f"matrix is not unitary: deviation {dev:.3e}")
    return u


def build_quantum_switch(u_a, u_b) -> SwitchModel:
    """Validate the two unitaries and wrap them in a SwitchModel."""
    ua = _as_unitary_operator(u_a)
    ub = _as_unitary_operator(u_b)
    if ua.dim != ub.dim:
        raise ValueError("switch unitaries must act on the same dimension")
    return SwitchModel(u_a=ua, u_b=ub)


@functools.lru_cache(maxsize=8)
def _control_projectors(d: int) -> tuple[np.ndarray, np.ndarray]:
    """I (x) |+><+| and I (x) |-><-| on target (x) control, both read-only."""
    projs = []
    for v in (np.array([1.0, 1.0], dtype=complex) / math.sqrt(2),
              np.array([1.0, -1.0], dtype=complex) / math.sqrt(2)):
        proj = np.kron(np.eye(d, dtype=complex), np.outer(v, v.conj()))
        proj.setflags(write=False)
        projs.append(proj)
    return tuple(projs)


def _target_control(target: np.ndarray, controls: np.ndarray) -> np.ndarray:
    """``np.kron(target, c)`` for each control ``c`` of the stack ``controls``, bit for bit."""
    side = 2 * target.shape[0]
    return (target[None, :, None, :, None] * controls[:, None, :, None, :]).reshape(-1, side, side)


def _switched(model: SwitchModel, target: np.ndarray, controls: np.ndarray) -> np.ndarray:
    """``joint @ kron(target, c) @ joint_dag`` for each control ``c`` of the stack ``controls``."""
    return model.joint @ _target_control(target, controls) @ model.joint_dag


def switch_output(model: SwitchModel, target: DensityMatrix,
                  control: DensityMatrix) -> DensityMatrix:
    """Joint output state for the given target and control inputs."""
    if target.dim != model.target_dim or control.dim != 2:
        raise ValueError("target/control dimensions do not match the switch")
    # a unitary conjugate of two validated states: valid without a recheck
    return DensityMatrix._trusted(_switched(model, target.entries, control.entries[None])[0],
                                  (model.target_dim, 2))


def control_interference_probabilities(model: SwitchModel, target: DensityMatrix,
                                       control: DensityMatrix) -> tuple[float, float]:
    """Probabilities of the +/- control outcomes after the switch.

    Anticommuting unitaries with a balanced control make the "-" outcome
    certain; commuting ones make "+" certain.
    """
    out = switch_output(model, target, control).entries
    p_plus, p_minus = (float(np.real(np.trace(proj @ out)))
                       for proj in _control_projectors(model.target_dim))
    return p_plus, p_minus


def minus_outcome_sweep(model: SwitchModel, target: DensityMatrix, controls) -> np.ndarray:
    """The "-" outcome probability for each control state vector, a row of ``controls``.

    Entry k equals ``control_interference_probabilities(model, target,
    DensityMatrix.from_state_vector(controls[k], (2,)))[1]`` bit for bit:
    the control states are built, switched and read out as stacks, a
    block of rows at a time, so the memory does not grow with the sweep.
    """
    controls = np.asarray(controls)
    if target.dim != model.target_dim or controls.ndim != 2 or controls.shape[1] != 2:
        raise ValueError("target/control dimensions do not match the switch")
    proj = _control_projectors(model.target_dim)[1]
    block = max(1, _STACK_ENTRIES // (2 * model.target_dim) ** 2)
    p_minus = np.empty(len(controls))
    for start in range(0, len(controls), block):
        out = _switched(model, target.entries, _pure_states(controls[start:start + block]))
        p_minus[start:start + block] = np.trace(proj @ out, axis1=1, axis2=2).real
    return p_minus


def traced_target_channel(model: SwitchModel, control: DensityMatrix) -> Channel:
    """Effective channel on the target once the control is traced out."""
    if control.dim != 2:
        raise ValueError("control must be a qubit state")
    d = model.target_dim

    def image(unit: np.ndarray) -> np.ndarray:
        joint = _switched(model, unit, control.entries[None])
        return np.einsum("acbc->ab", joint.reshape(d, 2, d, 2))

    return Channel(_choi(d, d, image), (d, d))


def switch_process_matrix(model: SwitchModel, control: DensityMatrix) -> ProcessMatrix:
    """Process matrix of the switch with the control traced out.

    A control fixed near |0> or |1> gives the corresponding definite
    order; any other control state is labelled with the forward order by
    convention (the validity conditions hold either way).
    """
    chan = traced_target_channel(model, control)
    p1 = float(np.real(control.entries[1, 1]))
    order = "BA" if p1 > 1 - 1e-12 else "AB"
    return from_channel_order(chan, order=order)


# ---------------------------------------------------------------------------
# alternating vs coherent order under noise
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Entropy trajectories of the two ordering protocols, as float64 columns.

    The series include the initial point, so each has steps + 1 entries.
    Which protocol accumulates less entropy is reported, never asserted.
    """

    ac_entropies: np.ndarray
    ico_entropies: np.ndarray

    @property
    def final_ac(self) -> float:
        return float(self.ac_entropies[-1])

    @property
    def final_ico(self) -> float:
        return float(self.ico_entropies[-1])


def ac_vs_ico_entropy(u_a, u_b, noise: float, steps: int) -> ComparisonReport:
    """Compare alternating definite order against the coherent switch.

    The alternating protocol applies the composite unitaries
    u_a u_b, u_b u_a, ... in strict alternation with the control wire
    left untouched; the coherent protocol applies the switch unitary to
    target (x) control prepared with a balanced control.  Both see the
    same joint depolarizing noise of strength ``noise`` after every
    step, so any entropy gap is attributable to how the order is
    carried.  The target starts in |0>.
    """
    if not 0.0 <= noise <= 1.0:
        raise ValueError(f"noise must lie in [0, 1], got {noise}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    model = build_quantum_switch(u_a, u_b)
    d = model.target_dim
    ua, ub = model.u_a.entries, model.u_b.entries

    # One stack steps both protocols: row 0 alternates u_a u_b, u_b u_a,
    # ... with control |0>, row 1 applies the switch with control |+>.
    stacks = [np.stack([np.kron(m, np.eye(2, dtype=complex)), model.joint])
              for m in (ua @ ub, ub @ ua)]
    pairs = itertools.cycle([(u, u.conj().transpose(0, 2, 1)) for u in stacks])
    start = _target_control(projector(ket(0, d)).entries, _pure_states([[1, 0], [1, 1]]))

    # Every state is a unitary conjugate or depolarizing mix of the
    # validated target, so none is validated again; the entropies keep
    # their own negative-eigenvalue check.  The steps are stacked in
    # blocks and each block's entropies are taken at once.
    block = max(1, _STACK_ENTRIES // (2 * (2 * d) ** 2))
    states = itertools.chain([start], itertools.islice(_noisy_orbit(start, pairs, noise), steps))
    series = np.empty((steps + 1, 2))
    for k, stack in enumerate(iter(lambda: list(itertools.islice(states, block)), [])):
        series[k * block:(k + 1) * block] = _entropies(np.array(stack)).reshape(-1, 2)
    return ComparisonReport(ac_entropies=series[:, 0], ico_entropies=series[:, 1])
