"""Bouncing-photon clock, tick ledger, and reversibility probes.

A causal box holds a photon whose direction qubit is flipped by each
mirror bounce.  Every traversal appends a signed tick to the tick
ledger; ticks are reversible bookkeeping until a decoherence event
freezes them.  Classical elapsed time is read off the ledger by summing
the magnitudes of maximal runs that end in a decohered tick, so a fully
coherent history shows no elapsed time no matter how long it is.

Also here: the reversible-composition operator R(t) built from a
forward and a reverse exponential family, the recurrence cascade over a
chain of exchange partners.  The absorber-reflection identity
``wf_echo`` lives in ``absorber`` and is re-exported here.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .absorber import wf_echo
from .qcore import (
    DEFAULT_TOL,
    _STACK_ENTRIES,
    ComplexOperator,
    DensityMatrix,
    PAULI_X,
    _noisy_orbit,
    fidelity,
    ket,
    projector,
)

__all__ = [
    "TickRecord",
    "TickLedger",
    "CausalBox",
    "BreakOutcome",
    "BoundaryConditions",
    "RcpOperator",
    "RcpInvariantReport",
    "CascadeReport",
    "bounce",
    "run_bounces",
    "classical_time",
    "classical_time_series",
    "bare_classical_time",
    "check_nondiscernability",
    "break_symmetry",
    "rcp_invariant",
    "cascade",
    "wf_echo",
]

# Step interval of the cascade hopping unitary: a two-site chain
# completes one full round trip in exactly two steps at this value.
CASCADE_STEP = math.pi / 2

MAX_CASCADE_SITES = 12

# rcp_invariant calls the R(t) norm constant when its drift stays below this.
RCP_TOL = 1e-10


class TickRecord(NamedTuple):
    value: int          # +1 forward traversal, -1 reversed
    decohered: bool     # True once the tick has leaked to an environment


@dataclass
class TickLedger:
    """Ordered record of signed traversal ticks; it starts empty."""

    increments: list[TickRecord] = field(default_factory=list, init=False)

    def append(self, value: int, decohered: bool) -> None:
        if value not in (-1, 1):
            raise ValueError(f"increment value must be +1 or -1, got {value}")
        self.increments.append(TickRecord(int(value), bool(decohered)))

    @property
    def traversal_count(self) -> int:
        return len(self.increments)

    @property
    def signed_sum(self) -> int:
        return sum(inc.value for inc in self.increments)

    @property
    def decohered_count(self) -> int:
        return sum(1 for inc in self.increments if inc.decohered)


def classical_time(ledger: TickLedger) -> int:
    """Elapsed classical time read from the ledger.

    The ledger is partitioned into maximal runs each ending at a
    decohered increment; the result is the sum of |run total| over those
    closed runs.  Ticks after the last decoherence event are still
    reversible and contribute nothing, which keeps the reading
    non-negative and non-decreasing as closed runs are appended.
    """
    series = classical_time_series(ledger)
    return series[-1] if series else 0


def classical_time_series(ledger: TickLedger) -> list[int]:
    """``classical_time`` of every prefix, in one pass over the ledger.

    Entry k is the reading after the first k + 1 ticks.
    """
    series = []
    total = 0
    run = 0
    for inc in ledger.increments:
        run += inc.value
        if inc.decohered:
            total += abs(run)
            run = 0
        series.append(total)
    return series


def bare_classical_time(ledger: TickLedger) -> int:
    """|sum of all ticks|, ignoring decoherence; kept for comparison.

    Unlike ``classical_time`` this is not monotone under appends.
    """
    return abs(ledger.signed_sum)


class BreakOutcome(Enum):
    """How the photon's reversible diamond resolves at a boundary."""

    FORWARD_DIAMOND = "forward_diamond"
    REVERSED_DIAMOND = "reversed_diamond"
    SIMULTANEOUS_EMISSION = "simultaneous_emission"
    SIMULTANEOUS_ABSORPTION = "simultaneous_absorption"


@dataclass(frozen=True)
class BoundaryConditions:
    """Outcome weights supplied by the environment at a symmetry break."""

    forward: float
    reversed: float
    simultaneous_emission: float
    simultaneous_absorption: float

    def __post_init__(self):
        w = self.weights()
        if any(not x >= 0 for x in w):
            raise ValueError(f"outcome weights must be non-negative, got {w}")
        if not abs(sum(w) - 1.0) <= 1e-9:
            raise ValueError(f"outcome weights must sum to 1, got sum {sum(w)}")

    def weights(self) -> tuple[float, float, float, float]:
        return (self.forward, self.reversed,
                self.simultaneous_emission, self.simultaneous_absorption)


@dataclass
class CausalBox:
    """Two mirrors, one photon, and the ledger of its traversals.

    The photon state's first factor is the direction qubit (|0> means
    the A-to-B leg); further factors (e.g. polarization) ride along
    untouched.  Evolution is sequential and deterministic for a given
    ``rng_seed``; randomness is drawn from a per-event stream keyed by
    (seed, event index) so any prefix can be replayed independently.
    """

    photon: DensityMatrix | None = None
    decoherence_per_bounce: float = 0.0
    ledger: TickLedger = field(default_factory=TickLedger, init=False)
    rng_seed: int = 0
    _event_count: int = field(default=0, init=False, repr=False)

    def __post_init__(self):
        if self.photon is None:
            self.photon = projector(ket(0))
        if not isinstance(self.photon, DensityMatrix):
            # bounce trusts the photon from here on, so only a validated state may enter
            raise TypeError(f"photon must be a DensityMatrix, got {type(self.photon).__name__}")
        if self.photon.dims[0] != 2:
            raise ValueError("the photon's first factor must be the direction qubit")
        if not 0.0 <= self.decoherence_per_bounce <= 1.0:
            raise ValueError(
                f"decoherence per bounce must lie in [0, 1], got {self.decoherence_per_bounce}")

    @property
    def current_direction(self) -> int:
        """Sign of the leg the photon is on: +1 for A to B, -1 back."""
        return 1 if self.ledger.traversal_count % 2 == 0 else -1

    def _event_rng(self) -> np.random.Generator:
        rng = np.random.default_rng((self.rng_seed, self._event_count))
        self._event_count += 1
        return rng


@functools.lru_cache(maxsize=8)
def _direction_flip(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """X on the direction qubit (x) I on the rest, and its dagger, both read-only."""
    x_full = np.kron(PAULI_X, np.eye(dim // 2, dtype=complex))
    x_dag = x_full.conj().T
    x_full.setflags(write=False)
    x_dag.setflags(write=False)
    return x_full, x_dag


def _photon_orbit(photon: DensityMatrix, p: float) -> Iterator[np.ndarray]:
    """The photon after each bounce: its direction qubit flipped, then depolarized by ``p``."""
    return _noisy_orbit(photon.entries, itertools.repeat(_direction_flip(photon.dim)), p)


def _bounce_photon(box: CausalBox, n: int) -> None:
    """Bounce the photon ``n`` times, wrapping it once."""
    rho = box.photon.entries
    for rho in itertools.islice(_photon_orbit(box.photon, box.decoherence_per_bounce), n):
        pass
    box.photon = DensityMatrix._trusted(rho, box.photon.dims)


def bounce(box: CausalBox) -> CausalBox:
    """One mirror reflection.

    Appends the signed traversal tick (sign of the leg just completed),
    samples the decohered flag with probability ``decoherence_per_bounce``,
    flips the direction qubit, and passes the photon through a
    depolarizing channel of the same strength.  Mutates ``box`` and
    returns it.
    """
    rng = box._event_rng()
    decohered = bool(rng.random() < box.decoherence_per_bounce)
    box.ledger.append(box.current_direction, decohered)
    _bounce_photon(box, 1)
    return box


# numpy's SeedSequence (bit_generator.pyx) and PCG64 (pcg64.h) constants
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# PCG64 seeding takes two steps and the first output a third; together
# they map the state seed s and increment inc to s A + inc B (mod 2^128).
_PCG_A = _PCG_MULT ** 2 & _MASK128
_PCG_B = (_PCG_MULT ** 2 + _PCG_MULT + 1) & _MASK128

# events drawn per block in run_bounces, so memory does not grow with n
_DRAW_CHUNK = 65_536


def _seed_words(n: int) -> list[int]:
    """``n`` as SeedSequence reads it: 32-bit little-endian words, ``[0]`` for 0."""
    words = [n & _MASK32]
    while n >> 32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _event_draws(seed: int, start: int, n: int) -> np.ndarray:
    """``np.random.default_rng((seed, k)).random()`` for k in [start, start + n), bit for bit.

    Replays SeedSequence's entropy pool for every k at once on uint32
    arrays (its hash constants do not depend on the data), then PCG64's
    seeding and first XSL-RR output in Python ints.  An event index needs
    to fit one 32-bit word.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if start < 0 or start + n > 1 << 32:
        raise ValueError(f"event indices [{start}, {start + n}) leave [0, 2**32)")
    entropy = [np.array([w], dtype=np.uint32) for w in _seed_words(seed)]
    entropy.append(np.arange(start, start + n, dtype=np.uint64).astype(np.uint32))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        r = x * _MIX_MULT_L - y * _MIX_MULT_R
        return r ^ (r >> 16)

    zero = np.zeros(1, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    # generate_state(4, uint64): eight words cycled from the pool
    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        words.append((value ^ (value >> 16)).astype(np.uint64))
    # little-endian pairs make the four uint64 words: state seed, then increment
    halves = [(words[i] | words[i + 1] << np.uint64(32)).tolist() for i in range(0, 8, 2)]
    out = []
    for s_hi, s_lo, i_hi, i_lo in zip(*halves):
        inc = (i_hi << 64 | i_lo) << 1 | 1
        state = ((s_hi << 64 | s_lo) * _PCG_A + inc * _PCG_B) & _MASK128
        x = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        out.append(((x >> rot | x << (-rot & 63)) & _MASK64) >> 11)
    return np.array(out, dtype=np.float64) * 2.0 ** -53


def run_bounces(box: CausalBox, n: int) -> CausalBox:
    """``n`` bounces in one pass, leaving ``box`` as ``n`` calls to ``bounce`` would.

    The decoherence flags are replayed in blocks by ``_event_draws``; the
    photon takes the same noisy steps as in ``bounce``, wrapped once at
    the end.  Mutates ``box`` and returns it.
    """
    if n < 0:
        raise ValueError(f"bounce count must be >= 0, got {n}")
    p = box.decoherence_per_bounce
    increments = box.ledger.increments
    for lo in range(0, n, _DRAW_CHUNK):
        draws = _event_draws(box.rng_seed, box._event_count + lo, min(_DRAW_CHUNK, n - lo))
        signs = np.resize([box.current_direction, -box.current_direction], draws.size)
        increments.extend(map(TickRecord, signs.tolist(), (draws < p).tolist()))
    _bounce_photon(box, n)
    box._event_count += n
    return box


def check_nondiscernability(box: CausalBox, k_cycles: int) -> bool:
    """True iff every completed round trip restores the photon exactly.

    Requires a closed box (zero decoherence), otherwise the premise is
    broken and a ValueError is raised.  The check reads every second
    state of the photon's orbit over 2 * k_cycles bounces and compares it
    to the initial one (fidelity within 1e-10).  It leaves ``box`` as it
    is: no event is drawn and no tick is written.
    """
    if box.decoherence_per_bounce != 0.0:
        raise ValueError("retroactive check requires zero decoherence")
    if k_cycles < 1:
        raise ValueError(f"k_cycles must be >= 1, got {k_cycles}")

    initial = box.photon
    round_trips = itertools.islice(_photon_orbit(initial, 0.0), 1, 2 * k_cycles, 2)
    # each state is a unitary conjugate of the photon validated when it entered the box
    return not any(abs(fidelity(DensityMatrix._trusted(rho, initial.dims), initial) - 1.0) > 1e-10
                   for rho in round_trips)


def break_symmetry(box: CausalBox, boundary: BoundaryConditions) -> BreakOutcome:
    """Resolve the reversible history against external boundary weights.

    Samples one of the four outcomes (seeded through the box's event
    stream) and appends the matching decohered record: a +1 tick for a
    forward resolution, a -1 tick for a reversed one, and a net-zero
    pair (+1 coherent, -1 decohered) for the two simultaneous cases,
    which closes the open run without adding elapsed time of its own.
    """
    rng = box._event_rng()
    # the weights follow the outcomes in definition order
    outcome = tuple(BreakOutcome)[int(rng.choice(len(BreakOutcome), p=boundary.weights()))]
    if outcome is BreakOutcome.FORWARD_DIAMOND:
        box.ledger.append(+1, True)
    elif outcome is BreakOutcome.REVERSED_DIAMOND:
        box.ledger.append(-1, True)
    else:
        box.ledger.append(+1, False)
        box.ledger.append(-1, True)
    return outcome


# ---------------------------------------------------------------------------
# reversible-composition operator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RcpOperator:
    """Forward/reverse exponential families and a symmetry-breaking knob.

    ``t_plus`` and ``t_minus`` are the Hermitian generators of the two
    families; ``epsilon`` adds the non-Hermitian damping ``-i eps I`` to
    the reverse generator.
    """

    t_plus: ComplexOperator
    t_minus: ComplexOperator
    epsilon: float = 0.0

    def __post_init__(self):
        if self.t_plus.dim != self.t_minus.dim:
            raise ValueError("generators must act on the same dimension")
        for gen in (self.t_plus, self.t_minus):
            dev = gen.hermiticity_deviation()
            if dev > DEFAULT_TOL:
                raise ValueError(f"generator is not Hermitian: deviation {dev:.3e}")
        if not self.epsilon >= 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")

    @property
    def dim(self) -> int:
        return self.t_plus.dim


@dataclass(frozen=True)
class RcpInvariantReport:
    """Trajectory of <psi| R(t)^dag R(t) |psi> over the sample grid."""

    values: tuple[float, ...]
    constant: bool
    drift: float
    tol: float


def rcp_invariant(op: RcpOperator, psi: np.ndarray, ts: Sequence[float]) -> RcpInvariantReport:
    """Evaluate the norm invariant along ``ts``.

    R(t) = T_plus(t) + T_minus(-t)^dagger, with the families
    T_plus(s) = exp(-i s H_plus) / 2 and T_minus(s) = exp(-i s H_minus
    - eps |s| I) / 2; damping attenuates both temporal directions, so
    R(0) is the identity and the norm decays for t > 0 whenever eps > 0.
    Each family is exponentiated in one stacked call per block of
    sample times.

    ``drift`` is max - min of the series; ``constant`` holds iff the
    drift stays below ``RCP_TOL``, which happens exactly when the reverse
    family is the dagger dual of the forward one and epsilon is zero.
    A damping ``epsilon * |t|`` that overflows is refused with a
    ``ValueError`` that names ``epsilon``, and a sample time at which
    the norm is not finite (the exponentials overflow) with one that
    names the time.
    """
    if len(ts) == 0:
        raise ValueError("need at least one sample time")
    v = np.asarray(psi, dtype=complex).reshape(-1)
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValueError("state vector must be nonzero")
    v = v / norm
    ts = [float(t) for t in ts]
    farthest = max(abs(t) for t in ts)
    if not math.isfinite(op.epsilon * farthest):
        raise ValueError(f"damping epsilon * |t| overflows at epsilon = {op.epsilon!r}, "
                         f"|t| = {farthest!r}; lower epsilon or the sample times")
    h_plus = op.t_plus.entries
    h_minus = op.t_minus.entries
    g = np.eye(op.dim, dtype=complex)
    from scipy.linalg import expm   # imported on first use: it is most of the import time
    per_block = max(1, _STACK_ENTRIES // op.dim ** 2)
    values = []
    for lo in range(0, len(ts), per_block):
        block = ts[lo:lo + per_block]
        # in-place steps keep the peak at about three stacks
        gen = np.array([-1j * t for t in block])[:, None, None] * h_plus
        fwd = expm(gen)
        fwd /= 2
        np.multiply(np.array([1j * t for t in block])[:, None, None], h_minus, out=gen)
        gen -= np.array([op.epsilon * abs(t) for t in block])[:, None, None] * g
        rev = expm(gen)
        rev /= 2
        for f, r in zip(fwd, rev):
            rv = (f + r.conj().T) @ v
            values.append(float(np.real(np.vdot(rv, rv))))
    for t, value in zip(ts, values):
        if not math.isfinite(value):
            raise ValueError(f"norm of R(t) is not finite at t = {t!r}; "
                             "move tmax, the sample time farthest from 0, nearer to 0")
    drift = max(values) - min(values)
    return RcpInvariantReport(
        values=tuple(values),
        constant=drift < RCP_TOL,
        drift=drift,
        tol=RCP_TOL,
    )


# ---------------------------------------------------------------------------
# recurrence cascade
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CascadeReport:
    """Return-fidelity trace of an excitation hopping down a chain."""

    fidelities: tuple[float, ...]   # fidelity after step k = 1..horizon
    best_fidelity: float
    best_step: int


def _cascade_step(n: int) -> np.ndarray:
    """exp(-i H pi/2) for the ``n``-site open chain, read-only, from the step table."""
    from ._cascade_steps import STEPS
    offset = 16 * sum(k * k for k in range(2, n))
    return np.frombuffer(STEPS, dtype="<c16", count=n * n, offset=offset).reshape(n, n)


def cascade(n: int, noise: float, horizon: int) -> CascadeReport:
    """Hop a single excitation along an open chain of ``n`` partners.

    The step unitary is exp(-i H pi/2) with H the uniform
    nearest-neighbour hopping Hamiltonian restricted to the
    one-excitation sector; depolarizing noise of strength ``noise`` acts
    after every step.  Reports the best fidelity of return to the
    initial end-site state within the horizon.  The evolution is a
    deterministic density-matrix calculation, so it takes no seed.

    The step is read from a table of ``scipy.linalg.expm``'s results
    for every allowed ``n`` (``altcausal._cascade_steps``), so no scipy
    is imported; the tests check the table bit for bit against scipy
    and against the chain's closed form.
    """
    if not 2 <= n <= MAX_CASCADE_SITES:
        raise ValueError(f"chain length must lie in [2, {MAX_CASCADE_SITES}], got {n}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if not 0.0 <= noise <= 1.0:
        raise ValueError(f"noise must lie in [0, 1], got {noise}")

    step = _cascade_step(n)
    rho = np.zeros((n, n), dtype=complex)
    rho[0, 0] = 1.0
    steps = itertools.repeat((step, step.conj().T), horizon)
    fids = [float(np.real(state[0, 0])) for state in _noisy_orbit(rho, steps, noise)]

    best_idx = int(np.argmax(fids))
    return CascadeReport(
        fidelities=tuple(fids),
        best_fidelity=fids[best_idx],
        best_step=best_idx + 1,
    )
