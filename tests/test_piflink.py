import math
import re
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from altcausal.piflink import (
    BOLTZMANN_J_PER_K,
    CycleColumns,
    Direction,
    InfoLedger,
    JointDistribution,
    LinkConfig,
    LinkMode,
    SLICE_BITS,
    Slice,
    _BLOCK,
    _STREAM_MC_BACKWARD,
    _STREAM_MC_FORWARD,
    _flip_words,
    _joint_counts,
    _stream,
    binary_entropy,
    capacity,
    capacity_monte_carlo,
    conservation_check,
    echo,
    landauer_cost,
    mutual_information,
    run_link,
    run_matched,
    shannon_entropy,
    symmetry_check,
)

H2_OF_011 = 0.4999159581645262       # -0.11 log2 0.11 - 0.89 log2 0.89
BSC_MI_011 = 1.0 - H2_OF_011         # uniform-input BSC mutual information
LANDAUER_1BIT_300K = 2.871e-21       # k_B * 300 * ln 2


# ---------------------------------------------------------------------------
# entropy and information
# ---------------------------------------------------------------------------

def test_shannon_entropy_oracles():
    assert shannon_entropy([1.0, 0.0]) == 0.0
    assert shannon_entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)
    assert shannon_entropy([0.89, 0.11]) == pytest.approx(H2_OF_011, abs=1e-12)
    for deterministic in ([1.0], [1.0, 0.0], [[0.0, 1.0]]):
        assert math.copysign(1.0, shannon_entropy(deterministic)) == 1.0   # +0.0, not -0.0


def test_shannon_entropy_rejects_bad_input():
    with pytest.raises(ValueError):
        shannon_entropy([0.5, 0.6])
    with pytest.raises(ValueError):
        shannon_entropy([1.2, -0.2])


def test_binary_entropy_endpoints_exact():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0


def test_mutual_information_oracles():
    correlated = JointDistribution([[0.5, 0.0], [0.0, 0.5]])
    assert mutual_information(correlated) == pytest.approx(1.0, abs=1e-12)
    product = JointDistribution(np.outer([0.3, 0.7], [0.6, 0.4]))
    assert mutual_information(product) == pytest.approx(0.0, abs=1e-12)
    p = 0.11
    bsc = JointDistribution([[0.5 * (1 - p), 0.5 * p], [0.5 * p, 0.5 * (1 - p)]])
    assert mutual_information(bsc) == pytest.approx(BSC_MI_011, abs=1e-12)


def test_mutual_information_nonnegative_and_symmetric():
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = rng.random((3, 3))
        p /= p.sum()
        j = JointDistribution(p)
        jt = JointDistribution(p.T)
        assert mutual_information(j) >= 0.0
        assert mutual_information(j) == pytest.approx(mutual_information(jt), abs=1e-12)


def test_mutual_information_matches_the_checked_entropy_route_bit_for_bit():
    # mutual_information reads its marginals without re-checking them
    rng = np.random.default_rng(7)
    for shape in [(1, 1), (2, 2), (2, 5), (4, 3), (65, 65)] * 40:
        p = rng.random(shape) * (rng.random(shape) < 0.7)
        p = p / p.sum() if p.sum() > 0 else np.full(shape, 1.0 / p.size)
        joint = JointDistribution(p)
        hx, hy = shannon_entropy(joint.p.sum(axis=1)), shannon_entropy(joint.p.sum(axis=0))
        checked = max(hx + hy - shannon_entropy(joint.p), 0.0)
        assert mutual_information(joint).hex() == checked.hex()


def test_joint_distribution_validates():
    with pytest.raises(ValueError):
        JointDistribution([[0.7, 0.6], [0.0, 0.0]])
    with pytest.raises(ValueError):
        JointDistribution([[1.5, -0.5], [0.0, 0.0]])
    with pytest.raises(ValueError):
        JointDistribution([0.5, 0.5])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_tables_refuse_non_finite_entries(bad):
    with pytest.raises(ValueError, match="^probabilities must"):
        JointDistribution([[bad, 0.5], [0.5, 0.0]])
    with pytest.raises(ValueError, match="^(probabilities|counts) must"):
        JointDistribution.from_counts([[bad, 1.0], [1.0, 1.0]])
    for dist in ([bad], [bad, 0.5], [0.5, 0.5, bad]):
        with pytest.raises(ValueError, match="^probabilities must"):
            shannon_entropy(dist)


def test_symmetry_check():
    assert symmetry_check(JointDistribution([[0.5, 0.0], [0.0, 0.5]])) == 0.0
    j = JointDistribution([[0.3, 0.3], [0.1, 0.3]])
    assert symmetry_check(j) == pytest.approx(0.2, abs=1e-12)
    with pytest.raises(ValueError):
        symmetry_check(JointDistribution(np.full((2, 3), 1 / 6)))


def test_conservation_check_hand_built_series():
    def columns(i_plus, i_minus):
        zeros = np.zeros(len(i_plus))
        return CycleColumns(i_plus=i_plus, i_minus=i_minus, i_reflected=zeros,
                            h_in=zeros, h_out=zeros, landauer_joules=zeros)

    flat = columns(np.full(5, 64.0), np.full(5, 64.0))
    assert conservation_check(flat) == 0.0
    k = np.arange(5)
    seesaw = columns(10.0 + 0.3 * k, 10.0 - 0.3 * k)
    assert conservation_check(seesaw) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        conservation_check(columns(np.full(1, 64.0), np.full(1, 64.0)))


_TALLY_VALUES = dict(i_plus=64.0, i_minus=64.0, i_reflected=10.0, h_in=1.0, h_out=1.0,
                     landauer_joules=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", _TALLY_VALUES)
def test_ledgers_refuse_non_finite_tallies(name, bad):
    message = re.escape(f"{name} must be >= 0 and finite, got {bad}")
    # a ledger is one cycle, so its message names the field and no cycle
    with pytest.raises(ValueError, match=f"^{message}$"):
        InfoLedger(**dict(_TALLY_VALUES, **{name: bad}))
    columns = {k: [v, v] for k, v in _TALLY_VALUES.items()}
    with pytest.raises(ValueError, match=f"^{message} in cycle 1$"):
        CycleColumns(**dict(columns, **{name: [_TALLY_VALUES[name], bad]}))


def test_info_ledger_derives_delta_s():
    led = InfoLedger(i_plus=10.0, i_minus=4.0, i_reflected=4.0,
                     h_in=1.0, h_out=1.0, landauer_joules=0.0)
    assert led.delta_s == 6.0
    with pytest.raises(ValueError, match="^reflected information exceeds transmitted information$"):
        InfoLedger(i_plus=1.0, i_minus=0.0, i_reflected=2.0,
                   h_in=0.0, h_out=0.0, landauer_joules=0.0)


_finite = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
# (T, R) pairs whose plain difference does not add back to T; the first two are
# the run totals of `pif --flip-forward 0.01 --flip-backward 0.01 --echo-loss 0.6`
# at seeds 6 and 8
_UNBALANCED = [(119367.5357592767, 44246.73680333411), (119469.83727731915, 45507.10748400134),
               (86028.97789205496, 19973.874988196003), (51011.598092867636, 10666.065676889677)]


def _ledger_pair(pair):
    t, r = max(pair), min(pair)
    return t, r, InfoLedger(i_plus=t, i_minus=0.0, i_reflected=r,
                            h_in=0.0, h_out=0.0, landauer_joules=0.0)


# a share of a finite total, so that R < T / 2 (where the rule can fire) comes up often
_shares = st.builds(lambda t, alpha: (t, t * alpha), _finite, st.floats(min_value=0.0, max_value=1.0))


@given(st.lists(st.tuples(_finite, _finite) | _shares, min_size=1, max_size=20))
def test_ledgers_balance_exactly(pairs):
    pairs = [*pairs, *_UNBALANCED]
    for pair in pairs:
        t, r, led = _ledger_pair(pair)
        assert led.i_transmitted == t
        assert led.i_reflected + led.delta_s == led.i_transmitted
        assert 0.0 <= led.i_reflected <= t
        if r + (t - r) == t:
            assert _float_bits(led.i_reflected) == _float_bits(r)   # balanced: untouched
        else:
            assert led.delta_s == t - r and abs(led.i_reflected - r) <= math.ulp(t)
    ts = np.array([max(p) for p in pairs])
    rs = np.array([min(p) for p in pairs])
    zeros = np.zeros(len(pairs))
    cols = CycleColumns(i_plus=ts, i_minus=zeros, i_reflected=rs, h_in=zeros, h_out=zeros,
                        landauer_joules=zeros)
    assert np.array_equal(cols.i_reflected + cols.delta_s, cols.i_transmitted)
    assert not cols.i_reflected.flags.writeable
    assert cols.i_reflected.tolist() == [_ledger_pair(p)[2].i_reflected for p in pairs]
    balanced = rs + (ts - rs) == ts
    assert _float_bits(cols.i_reflected[balanced]) == _float_bits(rs[balanced])


@given(st.tuples(_finite, _finite) | _shares, st.tuples(_finite, _finite, _finite, _finite))
@example(_UNBALANCED[0], (1.0, 2.0, 3.0, 4.0))
@example(_UNBALANCED[3], (0.0, 0.0, 0.0, 0.0))
def test_info_ledger_is_a_one_cycle_run(pair, rest):
    t, r = max(pair), min(pair)
    i_minus, h_in, h_out, cost = rest
    led = InfoLedger(i_plus=t, i_minus=i_minus, i_reflected=r, h_in=h_in, h_out=h_out,
                     landauer_joules=cost)
    row = CycleColumns(*([v] for v in (t, i_minus, r, h_in, h_out, cost)))
    # reference: the balance rule on floats
    d = t - r
    reference = r if r + d == t else t - d
    assert _float_bits(led.i_reflected) == _float_bits(row.i_reflected) == _float_bits(reference)
    assert _float_bits(led.delta_s) == _float_bits(row.delta_s) == _float_bits(t - reference)
    assert (led.i_plus, led.i_minus, led.h_in, led.h_out, led.landauer_joules) == (t, *rest)


# ---------------------------------------------------------------------------
# slices and echo
# ---------------------------------------------------------------------------

def test_echo_reverses_bytes_and_direction():
    s = Slice(payload=bytes([1, 2, 3, 4, 5, 6, 7, 8]), seq=9)
    e = echo(s)
    assert e.payload == bytes([8, 7, 6, 5, 4, 3, 2, 1])
    assert e.direction is Direction.BACKWARD
    assert e.seq == 9


def test_echo_palindrome_payload():
    s = Slice(payload=bytes([1, 2, 3, 4, 4, 3, 2, 1]), seq=0)
    assert echo(s).payload == s.payload
    assert echo(s).direction is Direction.BACKWARD


@given(payload=st.binary(min_size=8, max_size=8),
       seq=st.integers(min_value=0, max_value=2 ** 64 - 1))
def test_echo_is_an_involution(payload, seq):
    s = Slice(payload=payload, seq=seq)
    assert echo(echo(s)) == s


def test_slice_validation():
    with pytest.raises(ValueError):
        Slice(payload=bytes(7), seq=0)
    with pytest.raises(ValueError):
        Slice(payload=bytes(8), seq=-1)
    with pytest.raises(ValueError):
        Slice(payload=bytes(8), seq=2 ** 64)


# ---------------------------------------------------------------------------
# link runs
# ---------------------------------------------------------------------------

def test_perfect_run_produces_nothing_but_flow():
    rep = run_link(LinkConfig(slice_count=10_000, rng_seed=5))
    led = rep.ledger
    assert rep.detected_mismatches == 0
    assert rep.undetected_corruptions == 0
    assert led.delta_s == 0.0
    assert led.landauer_joules == 0.0
    assert led.i_plus == 64.0 * 10_000
    assert led.h_in == led.h_out
    assert conservation_check(rep.cycles) == 0.0
    assert symmetry_check(rep.joint) < 3 * math.sqrt(0.25 / (64 * 10_000))


def test_detected_equals_injected_forward_noise():
    for seed in (0, 7, 123):
        rep = run_link(LinkConfig(slice_count=400, bit_flip_forward=0.01, rng_seed=seed))
        assert rep.detected_mismatches == rep.injected_forward
        assert rep.undetected_corruptions == 0


def test_backward_noise_is_also_visible():
    rep = run_link(LinkConfig(slice_count=400, bit_flip_backward=0.02, rng_seed=3))
    assert rep.detected_mismatches == rep.injected_backward
    assert rep.undetected_corruptions == 0


def test_fito_matches_pif_noise_draws():
    base = dict(slice_count=300, bit_flip_forward=0.01, rng_seed=11)
    pif = run_link(LinkConfig(**base))
    fito = run_link(LinkConfig(**base, mode=LinkMode.FITO))
    assert fito.injected_forward == pif.injected_forward
    assert fito.undetected_corruptions == fito.injected_forward > 0
    assert pif.undetected_corruptions == 0
    assert fito.ledger.landauer_joules > 0.0
    assert pif.ledger.landauer_joules == 0.0
    assert fito.throughput_slices_per_round_trip == 2.0
    assert pif.throughput_slices_per_round_trip == 1.0


def test_echo_loss_accounting():
    rep = run_link(LinkConfig(slice_count=10_000, echo_loss_probability=0.25, rng_seed=5))
    lost = rep.lost_echoes
    sigma = math.sqrt(10_000 * 0.25 * 0.75)
    assert abs(lost - 2500) <= 3 * sigma
    assert rep.ledger.delta_s == 64.0 * lost
    # the per-cycle violation equals the per-loss unreflected information
    assert conservation_check(rep.cycles) == 64.0
    assert rep.ledger.delta_s / lost == 64.0


def test_replay_through_slice_protocol_matches_engine():
    # drive the slice-level API with the engine's own noise streams and
    # confirm both sides agree on every detection decision
    cfg = LinkConfig(slice_count=200, bit_flip_forward=0.02,
                     bit_flip_backward=0.02, echo_loss_probability=0.1, rng_seed=13)
    rep = run_link(cfg)

    n = cfg.slice_count
    payloads = np.random.default_rng((cfg.rng_seed, 0)).integers(
        0, 256, size=(n, 8), dtype=np.uint8)
    fwd = np.random.default_rng((cfg.rng_seed, 1)).random((n, 64)) < cfg.bit_flip_forward
    lost = np.random.default_rng((cfg.rng_seed, 2)).random(n) < cfg.echo_loss_probability
    bwd = np.random.default_rng((cfg.rng_seed, 3)).random((n, 64)) < cfg.bit_flip_backward

    detected = lost_count = 0
    for k in range(n):
        sent = Slice(payload=payloads[k].tobytes(), seq=k)
        recv_bits = np.unpackbits(payloads[k]) ^ fwd[k]
        received = Slice(payload=np.packbits(recv_bits).tobytes(), seq=k)
        if lost[k]:
            lost_count += 1
            continue
        echoed = echo(received)
        wire = np.unpackbits(np.frombuffer(echoed.payload, dtype=np.uint8)) ^ bwd[k]
        arrived = Slice(payload=np.packbits(wire).tobytes(), seq=k,
                        direction=echoed.direction)
        recovered = echo(arrived)
        if recovered.payload != sent.payload:
            detected += 1
    assert detected == rep.detected_mismatches
    assert lost_count == rep.lost_echoes


def test_run_link_rejects_bad_config():
    with pytest.raises(ValueError):
        LinkConfig(slice_count=0)
    with pytest.raises(ValueError):
        LinkConfig(bit_flip_forward=1.5)
    with pytest.raises(ValueError):
        LinkConfig(temperature_kelvin=0.0)
    for temperature in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            LinkConfig(temperature_kelvin=temperature)


# ---------------------------------------------------------------------------
# capacity and cost
# ---------------------------------------------------------------------------

def test_capacity_symmetric_ratio_is_exactly_two():
    for p in (0.0, 0.05, 0.11, 0.3):
        cfg = LinkConfig(slice_count=1, bit_flip_forward=p, bit_flip_backward=p)
        c_one, c_pif = capacity(cfg)
        assert c_pif == 2.0 * c_one


def test_capacity_pinned_values():
    noiseless = capacity(LinkConfig(slice_count=1))
    assert noiseless == (64.0, 128.0)
    dead = capacity(LinkConfig(slice_count=1, bit_flip_forward=0.5, bit_flip_backward=0.5))
    assert dead == (0.0, 0.0)
    c_one, _ = capacity(LinkConfig(slice_count=1, bit_flip_forward=0.11,
                                   bit_flip_backward=0.11))
    assert c_one == pytest.approx(64 * BSC_MI_011, abs=1e-12)


def test_capacity_monte_carlo_agrees():
    cfg = LinkConfig(slice_count=1, bit_flip_forward=0.11, bit_flip_backward=0.11,
                     rng_seed=17)
    c_one, c_pif = capacity(cfg)
    m_one, m_pif = capacity_monte_carlo(cfg, n_bits=100_000)
    assert m_one == pytest.approx(c_one, rel=0.05)
    assert m_pif == pytest.approx(c_pif, rel=0.05)


def _reference_joint_counts(x, y):
    """The former 2x2 count table: one full boolean reduction per cell."""
    return np.array([
        [int((~x & ~y).sum()), int((~x & y).sum())],
        [int((x & ~y).sum()), int((x & y).sum())],
    ], dtype=float)


def test_joint_counts_match_four_reductions():
    rng = np.random.default_rng(23)
    shapes = [(0,), (1,), (1000,), (0, 64), (1, 64), (300, 64)]
    for shape in shapes:
        for p_x, p_flip in ((0.5, 0.11), (0.0, 0.0), (1.0, 0.0), (0.5, 1.0), (0.3, 0.5)):
            x = rng.random(shape) < p_x
            y = x ^ (rng.random(shape) < p_flip)
            got = _joint_counts(x.size, np.count_nonzero(x), np.count_nonzero(y),
                                np.count_nonzero(x & y))
            want = _reference_joint_counts(x, y)
            assert got.dtype == want.dtype and got.shape == (2, 2)
            assert got.tobytes() == want.tobytes()
            assert got.sum() == x.size


def test_joint_counts_of_a_run_with_every_echo_lost_are_empty():
    rep = run_link(LinkConfig(slice_count=50, echo_loss_probability=1.0))
    assert rep.lost_echoes == 50
    assert _joint_counts(0, 0, 0, 0).tobytes() == np.zeros((2, 2)).tobytes()
    assert rep.joint.p.tobytes() == JointDistribution.from_counts(np.eye(2)).p.tobytes()


def _reference_capacity_monte_carlo(cfg: LinkConfig, n_bits: int) -> tuple[float, float]:
    """The former capacity_monte_carlo: one full-size draw of each stream per leg."""
    want = []
    for tag, flip in ((_STREAM_MC_FORWARD, cfg.bit_flip_forward),
                      (_STREAM_MC_BACKWARD, cfg.bit_flip_backward)):
        rng = _stream(cfg.rng_seed, tag)
        x = rng.integers(0, 2, size=n_bits).astype(bool)
        y = x ^ (rng.random(n_bits) < flip)
        joint = JointDistribution.from_counts(_reference_joint_counts(x, y))
        want.append(SLICE_BITS * mutual_information(joint))
    return want[0], want[0] + want[1]


@pytest.mark.parametrize("p", [0.0, 0.11, 0.5, 1.0])
def test_capacity_monte_carlo_matches_four_reductions_bit_for_bit(p):
    cfg = LinkConfig(slice_count=1, bit_flip_forward=p, bit_flip_backward=p / 2, rng_seed=29)
    assert capacity_monte_carlo(cfg, n_bits=5000) == _reference_capacity_monte_carlo(cfg, 5000)


@pytest.mark.parametrize("n_bits", [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                    2 * _BLOCK + 1, 3 * _BLOCK + 7])
@pytest.mark.parametrize("seed", [0, 17, 2 ** 40 + 3])
def test_capacity_monte_carlo_in_blocks_equals_one_full_size_draw(n_bits, seed):
    # an odd n_bits leaves the last int a spare 32-bit half, which the floats skip
    for p in (0.0, 0.11, 0.5, 1.0):
        cfg = LinkConfig(slice_count=1, bit_flip_forward=p, bit_flip_backward=abs(0.5 - p),
                         rng_seed=seed)
        got = capacity_monte_carlo(cfg, n_bits=n_bits)
        assert _float_bits(got) == _float_bits(_reference_capacity_monte_carlo(cfg, n_bits))


_ROWS = _BLOCK // SLICE_BITS   # slices per block of flip-mask draws


@pytest.mark.parametrize("n", [1, _ROWS - 1, _ROWS, _ROWS + 1, 3 * _ROWS + 7])
@pytest.mark.parametrize("p", [0.0, 0.01, 0.5, 1.0])
def test_flip_words_equal_one_full_size_draw_packed(n, p):
    fast_rng, full_rng = _stream(5, 1), _stream(5, 1)
    words = _flip_words(fast_rng, n, p)
    want = np.packbits(full_rng.random((n, SLICE_BITS)) < p, axis=1).view(np.uint64).ravel()
    assert words.dtype == np.uint64 and words.shape == (n,)
    assert words.tobytes() == want.tobytes()
    assert fast_rng.random() == full_rng.random()   # the stream goes on from the same place


def _traced_peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_run_link_memory_stays_bounded_by_the_block_draws():
    # 100k slices: 0.8 MB per word column, 0.8 MB per float64 column, one
    # 8 MB block of doubles; the bool-matrix pipeline peaked at ~82 MB
    cfg = LinkConfig(slice_count=100_000, bit_flip_forward=0.01, bit_flip_backward=0.01,
                     echo_loss_probability=0.01)
    assert _traced_peak_mb(lambda: run_link(cfg)) < 25


def test_capacity_monte_carlo_memory_stays_bounded_by_the_block_draws():
    # 4e6 bits: ~10 MB of block draws; the full-size draws peaked at ~40 MB
    cfg = LinkConfig(slice_count=1, bit_flip_forward=0.11, bit_flip_backward=0.11, rng_seed=17)
    assert _traced_peak_mb(lambda: capacity_monte_carlo(cfg, n_bits=4_000_000)) < 24


def test_capacity_monte_carlo_memory_does_not_grow_with_n_bits():
    # a leg holds one block of bits and one of flips, however many blocks it reads
    cfg = LinkConfig(slice_count=1, bit_flip_forward=0.11, bit_flip_backward=0.11, rng_seed=17)
    capacity_monte_carlo(cfg, n_bits=1)   # numpy's first-call allocations are not the leg's
    one_block = _traced_peak_mb(lambda: capacity_monte_carlo(cfg, n_bits=_BLOCK + 1))
    four_blocks = _traced_peak_mb(lambda: capacity_monte_carlo(cfg, n_bits=4 * _BLOCK + 1))
    assert four_blocks < one_block + 1


def test_landauer_cost_oracles():
    assert landauer_cost(0.0, 300.0) == 0.0
    got = landauer_cost(1.0, 300.0)
    assert got == pytest.approx(LANDAUER_1BIT_300K, rel=1e-3)
    assert got == pytest.approx(BOLTZMANN_J_PER_K * 300.0 * math.log(2), rel=1e-15)
    with pytest.raises(ValueError):
        landauer_cost(-1.0, 300.0)
    with pytest.raises(ValueError):
        landauer_cost(1.0, -5.0)
    for temperature in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            landauer_cost(1.0, temperature)
    for bits in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            landauer_cost(bits, 300.0)


# ---------------------------------------------------------------------------
# column ledgers against the per-cycle reference
# ---------------------------------------------------------------------------

def _left_to_right_sum(values) -> float:
    # sum() of floats is compensated from Python 3.12 on; the report
    # totals are plain left-to-right additions.
    total = 0.0
    for v in values:
        total += v
    return total


def _reference_run_link(cfg: LinkConfig) -> SimpleNamespace:
    """Per-cycle loop that run_link replaced.

    Each cycle's six tallies are collected as ``tallies`` and checked once,
    as the rows of one ``CycleColumns``.
    """
    n = cfg.slice_count
    payloads = np.random.default_rng((cfg.rng_seed, 0)).integers(
        0, 256, size=(n, 8), dtype=np.uint8)
    fwd_mask = np.random.default_rng((cfg.rng_seed, 1)).random((n, 64)) < cfg.bit_flip_forward
    lost = np.random.default_rng((cfg.rng_seed, 2)).random(n) < cfg.echo_loss_probability
    bwd_mask = np.random.default_rng((cfg.rng_seed, 3)).random((n, 64)) < cfg.bit_flip_backward

    sent = np.unpackbits(payloads, axis=1).astype(bool)
    received = sent ^ fwd_mask
    echoed_bwd_mask = bwd_mask.reshape(n, 8, 8)[:, ::-1, :].reshape(n, 64)
    roundtrip_mask = fwd_mask ^ echoed_bwd_mask
    recovered = sent ^ roundtrip_mask

    f_fwd = fwd_mask.sum(axis=1)
    f_bwd = bwd_mask.sum(axis=1)
    f_rt = roundtrip_mask.sum(axis=1)

    pif = cfg.mode is LinkMode.PIF
    if not pif:
        lost = np.zeros(n, dtype=bool)

    def directed_bits(flips):
        return 64 * (1.0 - binary_entropy(flips / 64))

    tallies = []
    detected = lost_echoes = undetected = injected_fwd = injected_bwd = 0
    for k in range(n):
        i_plus = directed_bits(int(f_fwd[k]))
        cost = 0.0
        if pif:
            if lost[k]:
                lost_echoes += 1
                i_minus = 0.0
                i_reflected = 0.0
                if f_fwd[k] > 0:
                    injected_fwd += 1
            else:
                i_minus = directed_bits(int(f_bwd[k]))
                i_reflected = min(directed_bits(int(f_rt[k])), i_plus)
                if f_rt[k] > 0:
                    detected += 1
                elif f_fwd[k] > 0:
                    undetected += 1
                if f_fwd[k] > 0:
                    injected_fwd += 1
                if f_bwd[k] > 0:
                    injected_bwd += 1
        else:
            i_minus = 0.0
            i_reflected = 0.0
            if f_fwd[k] > 0:
                injected_fwd += 1
                undetected += 1
                cost = landauer_cost(int(f_fwd[k]), cfg.temperature_kelvin)
        tallies.append((i_plus, i_minus, i_reflected,
                        64 * binary_entropy(int(sent[k].sum()) / 64),
                        64 * binary_entropy(int(received[k].sum()) / 64),
                        cost))
    cycles = CycleColumns(*map(list, zip(*tallies)))

    totals = {name: _left_to_right_sum(getattr(cycles, name).tolist())
              for name in ("i_plus", "i_minus", "i_reflected", "landauer_joules")}
    total_bits = n * 64
    ledger = InfoLedger(
        h_in=total_bits * binary_entropy(int(sent.sum()) / total_bits),
        h_out=total_bits * binary_entropy(int(received.sum()) / total_bits),
        **totals,
    )

    x, y = (sent[~lost], recovered[~lost]) if pif else (sent, received)
    counts = _reference_joint_counts(x, y)
    if counts.sum() == 0:
        counts = np.eye(2)

    worst = None
    if n >= 2:
        worst = 0.0
        plus, minus = cycles.i_plus.tolist(), cycles.i_minus.tolist()
        for k in range(1, n):
            worst = max(worst, abs((plus[k] - plus[k - 1]) + (minus[k] - minus[k - 1])))

    return SimpleNamespace(
        tallies=tallies,
        cycles=cycles,
        ledger=ledger,
        detected_mismatches=detected if pif else 0,
        lost_echoes=lost_echoes,
        undetected_corruptions=undetected,
        injected_forward=injected_fwd,
        injected_backward=injected_bwd,
        joint=JointDistribution.from_counts(counts),
        conservation=worst,
        throughput_slices_per_round_trip=1.0 if pif else 2.0,
    )


_LEDGER_FIELDS = ("i_plus", "i_minus", "i_transmitted", "i_reflected",
                  "h_in", "h_out", "landauer_joules", "delta_s")
_COUNTERS = ("detected_mismatches", "lost_echoes", "undetected_corruptions",
             "injected_forward", "injected_backward", "throughput_slices_per_round_trip")


def _float_bits(values) -> bytes:
    # == treats 0.0 and -0.0 as equal; the report bytes do not
    return np.asarray(values, dtype=np.float64).tobytes()


def _assert_matches_reference(cfg: LinkConfig) -> None:
    fast = run_link(cfg)
    ref = _reference_run_link(cfg)
    assert len(fast.cycles) == len(ref.cycles) == cfg.slice_count
    for name in _LEDGER_FIELDS:
        column, expected = getattr(fast.cycles, name), getattr(ref.cycles, name)
        assert column.tolist() == expected.tolist(), name
        assert _float_bits(column) == _float_bits(expected), name
        total, expected_total = getattr(fast.ledger, name), getattr(ref.ledger, name)
        assert total == expected_total, name
        assert _float_bits(total) == _float_bits(expected_total), name
    for name in _COUNTERS:
        assert getattr(fast, name) == getattr(ref, name), name
    assert fast.joint.p.tolist() == ref.joint.p.tolist()
    if cfg.slice_count >= 2:
        assert conservation_check(fast.cycles) == ref.conservation


# (forward flip, backward flip, echo loss): clean, light noise, every echo
# lost (the degenerate joint), a dead channel, and reflection clamped by
# forward noise alone
_NOISE = [
    (0.0, 0.0, 0.0),
    (0.01, 0.01, 0.01),
    (0.02, 0.0, 1.0),
    (0.5, 0.5, 0.25),
    (0.05, 0.0, 0.0),
]
_SEEDS = [*range(10), 11]   # 5 drives c07, 11 is the CLI default


@pytest.mark.parametrize("mode", list(LinkMode))
@pytest.mark.parametrize("noise", _NOISE)
@pytest.mark.parametrize("slice_count", [1, 2, 2000])
def test_columns_match_per_cycle_reference_bit_for_bit(mode, noise, slice_count):
    flip_fwd, flip_bwd, loss = noise
    for seed in _SEEDS:
        _assert_matches_reference(LinkConfig(
            slice_count=slice_count, bit_flip_forward=flip_fwd, bit_flip_backward=flip_bwd,
            echo_loss_probability=loss, rng_seed=seed, mode=mode))


@pytest.mark.parametrize("cfg", [
    LinkConfig(slice_count=2000, bit_flip_forward=0.5, bit_flip_backward=0.5,
               echo_loss_probability=0.25, rng_seed=11, mode=LinkMode.PIF),
    LinkConfig(slice_count=2000, bit_flip_forward=0.05, rng_seed=3, mode=LinkMode.FITO),
], ids=lambda cfg: cfg.mode.name)
def test_one_cycle_ledgers_equal_the_oracles_batched_rows_bit_for_bit(cfg):
    # the oracle checks its cycles once, as columns: row k must be what a
    # one-cycle InfoLedger makes of cycle k's tallies
    ref = _reference_run_link(cfg)
    for k, tallies in enumerate(ref.tallies):
        led = InfoLedger(*tallies)
        for name in _LEDGER_FIELDS:
            assert _float_bits(getattr(led, name)) == _float_bits(getattr(ref.cycles, name)[k]), \
                (k, name)


@pytest.mark.parametrize("mode, tags", [(LinkMode.FITO, [0, 1]), (LinkMode.PIF, [0, 1, 2, 3]),
                                        (LinkMode.PIF, [0, 1, 2]), (LinkMode.PIF, [0, 1, 3])])
def test_only_a_verified_link_draws_the_echo_leg(mode, tags, monkeypatch):
    # FITO has no echo leg, so it draws neither the loss nor the backward stream;
    # PIF draws no stream of probability 0: no backward flip at bit_flip_backward=0
    # (the third case), no echo loss at echo_loss_probability=0 (the last);
    # every stream has its own sub-seed, so the streams it does draw are unchanged
    drawn = []
    monkeypatch.setattr("altcausal.piflink._stream",
                        lambda seed, tag: drawn.append(tag) or _stream(seed, tag))
    cfg = LinkConfig(slice_count=300, bit_flip_forward=0.02,
                     bit_flip_backward=0.0 if tags == [0, 1, 2] else 0.02,
                     echo_loss_probability=0.0 if tags == [0, 1, 3] else 0.1,
                     rng_seed=11, mode=mode)
    run_link(cfg)
    assert drawn == tags
    _assert_matches_reference(cfg)


def _report_bits(rep) -> tuple:
    """Every number of a LinkReport, floats as their bytes."""
    return (tuple(_float_bits(getattr(rep.cycles, name)) for name in _LEDGER_FIELDS),
            tuple(_float_bits(getattr(rep.ledger, name)) for name in _LEDGER_FIELDS),
            tuple(getattr(rep, name) for name in _COUNTERS),
            _float_bits(rep.joint.p))


@pytest.mark.parametrize("noise", _NOISE)
@pytest.mark.parametrize("slice_count", [1, 2, 2000])
def test_run_matched_equals_run_link_in_each_mode_bit_for_bit(noise, slice_count):
    flip_fwd, flip_bwd, loss = noise
    for seed in _SEEDS:
        cfg = LinkConfig(slice_count=slice_count, bit_flip_forward=flip_fwd,
                         bit_flip_backward=flip_bwd, echo_loss_probability=loss, rng_seed=seed,
                         mode=LinkMode.FITO)   # run_matched runs both modes whatever cfg says
        pif, fito = run_matched(cfg)
        assert _report_bits(pif) == _report_bits(run_link(replace(cfg, mode=LinkMode.PIF)))
        assert _report_bits(fito) == _report_bits(run_link(cfg))


@pytest.mark.parametrize("mode", list(LinkMode))
@pytest.mark.parametrize("slice_count", [_ROWS + 1, 2 * _ROWS + 3])
def test_columns_match_reference_across_a_block_boundary(mode, slice_count):
    _assert_matches_reference(LinkConfig(
        slice_count=slice_count, bit_flip_forward=0.01, bit_flip_backward=0.02,
        echo_loss_probability=0.1, rng_seed=7, mode=mode))


def test_columns_match_reference_at_other_temperatures():
    for temperature in (1e-3, 4.2, 1e9):
        _assert_matches_reference(LinkConfig(
            slice_count=500, bit_flip_forward=0.05, rng_seed=3,
            temperature_kelvin=temperature, mode=LinkMode.FITO))


def test_cycle_columns_validate_like_info_ledger():
    ok = dict(i_plus=[64.0, 10.0], i_minus=[64.0, 0.0], i_reflected=[64.0, 10.0],
              h_in=[1.0, 2.0], h_out=[1.0, 2.0], landauer_joules=[0.0, 0.0])
    cols = CycleColumns(**ok)
    assert len(cols) == 2
    assert cols.i_transmitted is cols.i_plus
    assert cols.delta_s.tolist() == [0.0, 0.0]
    with pytest.raises(ValueError):
        cols.i_plus[0] = 1.0    # columns are read-only
    for name in ok:
        with pytest.raises(ValueError, match=f"{name} must be >= 0"):
            CycleColumns(**dict(ok, **{name: [1.0, -1e-300]}))
    with pytest.raises(ValueError, match="reflected information exceeds"):
        CycleColumns(**dict(ok, i_reflected=[64.0, 10.5]))
    with pytest.raises(ValueError, match="as long as i_plus"):
        CycleColumns(**dict(ok, h_out=[1.0]))


def test_cycle_columns_do_not_freeze_the_callers_array():
    i_plus = np.array([3.0, 4.0])
    CycleColumns(i_plus=i_plus, i_minus=i_plus, i_reflected=i_plus, h_in=i_plus,
                 h_out=i_plus, landauer_joules=i_plus)
    i_plus[0] = 5.0
    assert i_plus.flags.writeable
