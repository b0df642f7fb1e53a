"""Reversible slice link and its information accounting.

The protocol moves 8-byte slices across a bidirectional link.  In PIF
mode every received slice is echoed back (byte order reversed,
direction flipped, sequence untouched); the sender inverts the echo and
compares against its retained copy, so any corruption on either leg
surfaces as a mismatch and nothing has to be erased.  FITO mode is the
matched one-way baseline: same noise draws, no echo, corrupted slices
silently overwrite receiver state and are charged the Landauer cost.

Information is tallied per protocol cycle (one slice round trip) from
per-bit empirical flip rates: a cycle's directed information is
64 * (1 - H2(flip fraction)), the uniform-input mutual information of
that cycle's observed channel.  The reflected share is the round-trip
mutual information, clamped by what was transmitted so the data
processing inequality survives finite sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "BOLTZMANN_J_PER_K",
    "SLICE_BYTES",
    "Direction",
    "LinkMode",
    "Slice",
    "JointDistribution",
    "InfoLedger",
    "CycleColumns",
    "LinkConfig",
    "LinkReport",
    "binary_entropy",
    "shannon_entropy",
    "mutual_information",
    "conservation_check",
    "symmetry_check",
    "echo",
    "run_link",
    "capacity",
    "capacity_monte_carlo",
    "landauer_cost",
]

BOLTZMANN_J_PER_K = 1.380649e-23    # exact SI value
SLICE_BYTES = 8
SLICE_BITS = 8 * SLICE_BYTES


class Direction(Enum):
    FORWARD = 0
    BACKWARD = 1

    def flipped(self) -> "Direction":
        return Direction.BACKWARD if self is Direction.FORWARD else Direction.FORWARD


class LinkMode(Enum):
    PIF = "pif"      # every slice verified by echo
    FITO = "fito"    # one-way fire and forget


@dataclass(frozen=True)
class Slice:
    """One 8-byte protocol unit."""

    payload: bytes
    seq: int
    direction: Direction = Direction.FORWARD

    def __post_init__(self):
        if len(self.payload) != SLICE_BYTES:
            raise ValueError(f"payload must be exactly {SLICE_BYTES} bytes, got {len(self.payload)}")
        if not 0 <= self.seq < 2 ** 64:
            raise ValueError(f"seq must fit in uint64, got {self.seq}")
        if not isinstance(self.direction, Direction):
            raise ValueError(f"direction must be a Direction, got {self.direction!r}")


def echo(s: Slice) -> Slice:
    """Time-reverse a slice: byte order reversed, direction flipped.

    Real byte content is its own conjugate, so applying echo twice gives
    back the original slice.
    """
    return Slice(payload=s.payload[::-1], seq=s.seq, direction=s.direction.flipped())


# ---------------------------------------------------------------------------
# entropy and information
# ---------------------------------------------------------------------------

def binary_entropy(p: float) -> float:
    """H2(p) in bits; exact 0 at the endpoints."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def shannon_entropy(dist) -> float:
    """Entropy of a discrete distribution in bits, 0 log 0 = 0."""
    return _entropy(JointDistribution(np.ravel(dist)[None, :]).p)


def _entropy(p: np.ndarray) -> float:
    """Entropy in bits of probabilities already checked, 0 log 0 = 0."""
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum() + 0.0)   # + 0.0 turns -0.0 into 0.0


@dataclass(frozen=True)
class JointDistribution:
    """Joint probability table over two discrete variables."""

    p: np.ndarray

    def __init__(self, p):
        table = np.array(p, dtype=float)
        if table.ndim != 2:
            raise ValueError(f"joint distribution must be 2-dimensional, got shape {table.shape}")
        if not (table >= -1e-12).all():
            raise ValueError("probabilities must be finite and non-negative")
        if not abs(table.sum() - 1.0) <= 1e-9:
            raise ValueError(f"probabilities must sum to 1, got {table.sum()}")
        table = np.clip(table, 0.0, None)
        table.setflags(write=False)
        object.__setattr__(self, "p", table)

    @classmethod
    def from_counts(cls, counts) -> "JointDistribution":
        c = np.asarray(counts, dtype=float)
        total = c.sum()
        if not 0 < total < math.inf:   # inf / inf would be a NaN table
            raise ValueError(f"counts must have a finite positive total, got {total}")
        return cls(c / total)


def mutual_information(joint: JointDistribution) -> float:
    """I(X;Y) = H(X) + H(Y) - H(X,Y) in bits, clipped at zero."""
    p = joint.p   # checked once, when the table was built
    return max(_entropy(p.sum(axis=1)) + _entropy(p.sum(axis=0)) - _entropy(p), 0.0)


def symmetry_check(joint: JointDistribution) -> float:
    """Largest asymmetry |p(x, y) - p(y, x)| of a square joint."""
    p = joint.p
    if p.shape[0] != p.shape[1]:
        raise ValueError("symmetry check needs a square joint distribution")
    return float(np.abs(p - p.T).max())


def landauer_cost(bits: float, temperature_kelvin: float) -> float:
    """Minimum erasure cost k_B T ln2 per bit, in joules."""
    if not (math.isfinite(bits) and bits >= 0):
        raise ValueError(f"erased bits must be finite and >= 0, got {bits}")
    if not (math.isfinite(temperature_kelvin) and temperature_kelvin >= 0):
        raise ValueError(f"temperature must be finite and >= 0, got {temperature_kelvin}")
    return bits * BOLTZMANN_J_PER_K * temperature_kelvin * math.log(2)


# ---------------------------------------------------------------------------
# ledgers and configuration
# ---------------------------------------------------------------------------

def _balanced(i_transmitted, i_reflected):
    """``i_reflected``, moved where it and ``delta_s`` do not add back to ``i_transmitted``.

    That happens only where i_reflected < i_transmitted / 2, so there
    i_transmitted - delta_s is exact (Sterbenz's lemma): it keeps delta_s
    and balances the sum.  Takes floats or float64 columns.
    """
    delta_s = i_transmitted - i_reflected
    return np.where(i_reflected + delta_s == i_transmitted, i_reflected, i_transmitted - delta_s)


# the tallies an InfoLedger and a CycleColumns are built from, in field order
_TALLIES = ("i_plus", "i_minus", "i_reflected", "h_in", "h_out", "landauer_joules")


@dataclass(frozen=True)
class InfoLedger:
    """Directed information tallies, in bits (cost in joules).

    The tallies are checked and balanced as a one-cycle ``CycleColumns``.
    ``i_transmitted`` is ``i_plus`` and ``delta_s`` is derived, never passed in;
    ``_balanced`` keeps i_reflected + delta_s = i_transmitted exact, bit for bit.
    """

    i_plus: float
    i_minus: float
    i_transmitted: float = field(init=False)
    i_reflected: float
    h_in: float
    h_out: float
    landauer_joules: float
    delta_s: float = field(init=False)

    def __post_init__(self):
        row = CycleColumns(*([getattr(self, name)] for name in _TALLIES))
        object.__setattr__(self, "i_transmitted", self.i_plus)
        object.__setattr__(self, "i_reflected", float(row.i_reflected[0]))
        object.__setattr__(self, "delta_s", self.i_transmitted - self.i_reflected)


@dataclass(frozen=True)
class CycleColumns:
    """Per-cycle ledgers of one run, one read-only float64 column per field.

    Entry k of every column is cycle k's tally, with the same meaning and
    the same checks as an ``InfoLedger``: every field is finite and
    non-negative, and the reflected share never exceeds the transmitted
    one.  A cycle's transmitted information is its forward directed
    information, so ``i_transmitted`` is ``i_plus``, ``delta_s`` is derived
    from the two, never stored, and ``i_reflected`` is balanced as in an
    ``InfoLedger``.
    """

    i_plus: np.ndarray
    i_minus: np.ndarray
    i_reflected: np.ndarray
    h_in: np.ndarray
    h_out: np.ndarray
    landauer_joules: np.ndarray

    def __post_init__(self):
        for name in _TALLIES:
            # a view, so freezing it leaves the caller's array writable
            col = np.asarray(getattr(self, name), dtype=np.float64).view()
            if col.shape != np.shape(self.i_plus) or col.ndim != 1:
                raise ValueError(f"{name} must be a column as long as i_plus, got shape {col.shape}")
            bad = np.flatnonzero(~(col >= 0) | np.isinf(col))
            if bad.size:   # an InfoLedger is a one-cycle run: it names no cycle
                where = f" in cycle {bad[0]}" if len(col) > 1 else ""
                raise ValueError(f"{name} must be >= 0 and finite, got {col[bad[0]]}{where}")
            col.setflags(write=False)
            object.__setattr__(self, name, col)
        bad = np.flatnonzero(self.i_reflected > self.i_plus)
        if bad.size:
            where = f" in cycle {bad[0]}" if len(self) > 1 else ""
            raise ValueError(f"reflected information exceeds transmitted information{where}")
        object.__setattr__(self, "i_reflected", _balanced(self.i_plus, self.i_reflected))
        self.i_reflected.setflags(write=False)

    def __len__(self) -> int:
        return self.i_plus.shape[0]

    @property
    def i_transmitted(self) -> np.ndarray:
        return self.i_plus

    @property
    def delta_s(self) -> np.ndarray:
        return self.i_plus - self.i_reflected


def conservation_check(cycles: CycleColumns) -> float:
    """Max per-cycle violation of dI_plus + dI_minus = 0.

    Needs at least two cycles; a steadily running verified link scores
    exactly zero because both directed rates are constant.
    """
    if len(cycles) < 2:
        raise ValueError("conservation check needs at least two cycles")
    return float(np.abs(np.diff(cycles.i_plus) + np.diff(cycles.i_minus)).max())


@dataclass(frozen=True)
class LinkConfig:
    slice_count: int = 1000
    bit_flip_forward: float = 0.0
    bit_flip_backward: float = 0.0
    echo_loss_probability: float = 0.0
    rng_seed: int = 0
    temperature_kelvin: float = 300.0
    mode: LinkMode = LinkMode.PIF

    def __post_init__(self):
        if self.slice_count < 1:
            raise ValueError(f"slice_count must be >= 1, got {self.slice_count}")
        for name in ("bit_flip_forward", "bit_flip_backward", "echo_loss_probability"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if not (math.isfinite(self.temperature_kelvin) and self.temperature_kelvin > 0):
            raise ValueError(f"temperature must be finite and positive, got {self.temperature_kelvin}")
        if not isinstance(self.mode, LinkMode):
            raise ValueError(f"mode must be a LinkMode, got {self.mode!r}")


@dataclass(frozen=True)
class LinkReport:
    """Everything observed over one simulated run.

    ``ledger`` holds the run totals; ``cycles`` holds one ledger entry
    per slice round trip as columns.  Each total is its column added
    left to right, so it is reproducible to the last bit.
    """

    ledger: InfoLedger
    cycles: CycleColumns
    detected_mismatches: int
    lost_echoes: int
    undetected_corruptions: int
    injected_forward: int
    injected_backward: int
    joint: JointDistribution
    throughput_slices_per_round_trip: float


# ---------------------------------------------------------------------------
# the simulation
# ---------------------------------------------------------------------------

# Sub-stream tags so tests can replay any single noise source.
_STREAM_PAYLOAD = 0
_STREAM_FORWARD = 1
_STREAM_LOSS = 2
_STREAM_BACKWARD = 3
_STREAM_MC_FORWARD = 4
_STREAM_MC_BACKWARD = 5


def _stream(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng((seed, tag))


def _directed_bits(flips: int) -> float:
    return SLICE_BITS * (1.0 - binary_entropy(flips / SLICE_BITS))


# Values per block of a large noise draw: the work arrays of a stream
# stay ~10 MB however long it is.
_BLOCK = 1 << 20


def _flip_words(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    """Flip masks of ``n`` slices, one uint64 word per slice.

    Equal to ``np.packbits(rng.random((n, 64)) < p, axis=1)`` viewed as
    words: the doubles are drawn in blocks of whole slices, and the
    blocks continue the one stream.
    """
    rows = _BLOCK // SLICE_BITS
    draw = np.empty((min(n, rows), SLICE_BITS))
    packed = np.empty((n, SLICE_BYTES), dtype=np.uint8)
    for start in range(0, n, rows):
        block = draw[:n - start]
        rng.random(out=block)
        packed[start:start + len(block)] = np.packbits(block < p, axis=1)
    return packed.view(np.uint64).ravel()


def _ones(words: np.ndarray) -> int:
    return int(np.bitwise_count(words).sum())


def _joint_counts(size: int, nx: int, ny: int, both: int) -> np.ndarray:
    """2x2 table of ``size`` bit pairs (x, y) as floats: row x, column y.

    Built from the ones in x, in y and in x & y by integer subtraction,
    so every entry is exact.
    """
    return np.array([[size - nx - ny + both, ny - both],
                     [nx - both, both]], dtype=float)


def run_link(cfg: LinkConfig) -> LinkReport:
    """Simulate the link and return its full report.

    Every noise stream is drawn from its own sub-seed of
    ``cfg.rng_seed``.  Both modes draw the payload and forward streams,
    so a FITO run is the exact matched baseline of the PIF run with the
    same seed: identical payloads, identical forward corruption.  Only
    PIF mode has an echo leg, so only it draws the echo-loss and
    backward streams.
    """
    n = cfg.slice_count
    payloads = _stream(cfg.rng_seed, _STREAM_PAYLOAD).integers(
        0, 256, size=(n, SLICE_BYTES), dtype=np.uint8)
    # A slice is one word: corruption is an XOR and a flip count a popcount.
    sent = payloads.view(np.uint64).ravel()
    fwd = _flip_words(_stream(cfg.rng_seed, _STREAM_FORWARD), n, cfg.bit_flip_forward)
    received = sent ^ fwd
    f_fwd = np.bitwise_count(fwd)

    # Every per-cycle value depends on one count in 0..64 only, so it is
    # looked up in a table built with the scalar functions: the columns
    # equal a per-cycle evaluation bit for bit.
    levels = range(SLICE_BITS + 1)
    directed = np.array([_directed_bits(k) for k in levels])
    entropy = np.array([SLICE_BITS * binary_entropy(k / SLICE_BITS) for k in levels])

    ones_in = np.bitwise_count(sent)
    ones_out = np.bitwise_count(received)
    i_plus = directed[f_fwd]
    corrupted_fwd = f_fwd > 0
    pif = cfg.mode is LinkMode.PIF
    if pif:
        returned = _stream(cfg.rng_seed, _STREAM_LOSS).random(n) >= cfg.echo_loss_probability
        bwd = _flip_words(_stream(cfg.rng_seed, _STREAM_BACKWARD), n, cfg.bit_flip_backward)
        # echo() reverses the byte order, so a backward flip lands byte-swapped
        roundtrip = fwd ^ bwd.byteswap()
        f_bwd = np.bitwise_count(bwd)
        f_rt = np.bitwise_count(roundtrip)
        i_minus = np.where(returned, directed[f_bwd], 0.0)
        i_reflected = np.where(returned, np.minimum(directed[f_rt], i_plus), 0.0)
        cost = np.zeros(n)
        mismatch = returned & (f_rt > 0)
        detected = int(np.count_nonzero(mismatch))
        # opposing flips cancelled on the same bit
        undetected = int(np.count_nonzero(returned & ~mismatch & corrupted_fwd))
        injected_bwd = int(np.count_nonzero(returned & (f_bwd > 0)))
        lost_echoes = n - int(np.count_nonzero(returned))
        x, y = sent[returned], (sent ^ roundtrip)[returned]
    else:
        i_minus = np.zeros(n)   # no echo leg
        i_reflected = np.zeros(n)
        erasure = np.array([landauer_cost(k, cfg.temperature_kelvin) for k in levels])
        cost = erasure[f_fwd]
        detected = injected_bwd = lost_echoes = 0
        undetected = int(np.count_nonzero(corrupted_fwd))
        x, y = sent, received
    cycles = CycleColumns(
        i_plus=i_plus,
        i_minus=i_minus,
        i_reflected=i_reflected,
        h_in=entropy[ones_in],
        h_out=entropy[ones_out],
        landauer_joules=cost,
    )

    # cumsum adds left to right; np.sum adds pairwise and moves the last bit
    totals = {name: float(np.cumsum(getattr(cycles, name))[-1])
              for name in ("i_plus", "i_minus", "i_reflected", "landauer_joules")}
    ones_in_total = int(ones_in.sum())
    ones_out_total = int(ones_out.sum())
    total_bits = n * SLICE_BITS
    ledger = InfoLedger(
        h_in=total_bits * binary_entropy(ones_in_total / total_bits),
        h_out=total_bits * binary_entropy(ones_out_total / total_bits),
        **totals,
    )

    counts = _joint_counts(SLICE_BITS * len(x), _ones(x), _ones(y), _ones(x & y))
    if counts.sum() == 0:
        counts = np.eye(2)   # degenerate run: every echo lost
    joint = JointDistribution.from_counts(counts)

    return LinkReport(
        ledger=ledger,
        cycles=cycles,
        detected_mismatches=detected,
        lost_echoes=lost_echoes,
        undetected_corruptions=undetected,
        injected_forward=int(np.count_nonzero(corrupted_fwd)),
        injected_backward=injected_bwd,
        joint=joint,
        throughput_slices_per_round_trip=1.0 if pif else 2.0,
    )


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------

def capacity(cfg: LinkConfig) -> tuple[float, float]:
    """Analytic per-cycle capacities (one-way, both directions) in bits.

    Each leg is a binary symmetric channel, so the one-way figure is
    64 * (1 - H2(p)); the verified link carries information on both legs
    and for symmetric noise comes out at exactly twice the one-way
    value.
    """
    c_forward = SLICE_BITS * (1.0 - binary_entropy(cfg.bit_flip_forward))
    c_backward = SLICE_BITS * (1.0 - binary_entropy(cfg.bit_flip_backward))
    return c_forward, c_forward + c_backward


def capacity_monte_carlo(cfg: LinkConfig, n_bits: int = 100_000) -> tuple[float, float]:
    """Empirical counterpart of ``capacity`` from simulated bit streams."""
    if n_bits < 1:
        raise ValueError(f"n_bits must be >= 1, got {n_bits}")

    def leg(tag: int, p: float) -> float:
        rng = _stream(cfg.rng_seed, tag)
        # Every int comes before the first float, as in one full-size draw
        # of each; PCG64 keeps the spare 32-bit half of a draw, so the int
        # blocks continue the stream as the float blocks do.
        x = np.empty(n_bits, dtype=bool)
        for start in range(0, n_bits, _BLOCK):
            x[start:start + _BLOCK] = rng.integers(0, 2, size=min(_BLOCK, n_bits - start))
        ny = both = 0
        for start in range(0, n_bits, _BLOCK):
            xs = x[start:start + _BLOCK]
            ys = xs ^ (rng.random(len(xs)) < p)
            ny += int(np.count_nonzero(ys))
            both += int(np.count_nonzero(xs & ys))
        counts = _joint_counts(n_bits, int(np.count_nonzero(x)), ny, both)
        return SLICE_BITS * mutual_information(JointDistribution.from_counts(counts))

    c_forward = leg(_STREAM_MC_FORWARD, cfg.bit_flip_forward)
    c_backward = leg(_STREAM_MC_BACKWARD, cfg.bit_flip_backward)
    return c_forward, c_forward + c_backward
