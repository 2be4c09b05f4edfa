"""Conditional homodyne trajectories for the monitored qubit.

With m = sigma_- exp(-i phi), c = sqrt(gamma) m and F from monitored_qubit,
and H' and N = sqrt(eta) c - i F from feedback_terms (both in qlift.dynamics),
the qubit obeys the stochastic master equation with Markovian feedback

    drho = -i [H', rho] dt + D[N] rho dt + (1 - eta) D[c] rho dt + H[N] rho dW,
    I dt  = sqrt(eta gamma) <m + m+> dt + dW / sqrt(eta)

(H. M. Wiseman and G. J. Milburn, Quantum Measurement and Control (2010),
chs. 4 and 5).  The current reads the quadrature sigma_x cos(phi) -
sigma_y sin(phi) of the excited-first basis, and <N + N+> = sqrt(eta gamma)
<m + m+> as F is Hermitian.  Without feedback F = 0.

One step is the completely positive update of P. Rouchon and J. F. Ralph,
Phys. Rev. A 91, 012118 (2015).  With A = I - (i H' + N+N / 2
+ (1 - eta) c+c / 2) dt, B = N and the measured increment dy = <N + N+> dt + dW,

    rho <- M rho M+ + (1 - eta) dt c rho c+,    M = A + dy B,

renormalized to unit trace.  Their second-order term N^2 (dy^2 - dt) / 2 is
left out: N is traceless, so N^2 = -det(N) I, which is zero without feedback;
with feedback the step is first order in dt.  Either way it is a sum of Kraus
terms, so it takes states to states at any eta, and nothing is repaired.  To
first order in dt it is the SME above, so averaging the conditional states
over dW recovers the deterministic master equation, which is what the
ensemble-mean cross-checks in the tests lean on.

States are held in the real coordinates x of qlift.dynamics (populations
first; see dynamics.coordinate_matrix), where expanding M rho M+ in powers
of dy gives

    x~ = G0 x + dy G1 x + dy^2 G2 x,    x <- x~ / (x~_0 + x~_1),

with G0, G1 and G2 the matrices of rho -> A rho A+ + (1 - eta) dt c rho c+,
rho -> B rho A+ + A rho B+ and rho -> B rho B+.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    _COORDINATES,
    SchemeSpec,
    TrajectoryConfig,
    _initial_state,
    check_step_size,
    coordinate_matrix,
    feedback_terms,
    monitored_qubit,
)
# project_physical is kept importable here: perfbench/tests/test_bench_tracing.py looks it up
from .operators import IDENTITY, check_density, project_physical  # noqa: F401
from .traces import HomodyneRecord

# Largest noise block run_ensemble holds at once, in bytes: the Wiener
# increments are drawn in time chunks of at most this size, so memory stays
# bounded however long the horizon.  Blocks of ~13 MB, freed at the end of
# each call, were seen to stay resident in the malloc heap across calls;
# 4 MiB blocks were not.
_NOISE_BYTES = 4 * 2**20


def _real_state(rho: np.ndarray) -> np.ndarray:
    """Coordinates x = V vec rho of a 2x2 state, normalized to unit trace."""
    x = (_COORDINATES[2][1] @ rho.ravel()).real
    return x / (x[0] + x[1])


@functools.lru_cache(maxsize=128)
def _step_maps(spec: SchemeSpec, dt: float) -> np.ndarray:
    """Read-only (13 k, 4) step maps for a (4, n) coordinate array, split in k
    parts that sum to the (13, 4) maps: rows 0-3, 4-7 and 8-11 of the sum are
    G0, G1 and G2 (see the module docstring), row 12 gives s_0 = <m + m+>, the
    trace of rho -> m rho + rho m+.  There is one part per entry of the
    longest map row: k = 1 at eta = 1 without feedback and phi = 0, 2
    otherwise.  Row 13 p + j holds the (p + 1)-th nonzero entry of row j of
    the sum, so each part has at most one nonzero entry per row.  A map row
    with more than two raises ValueError.

    Every stochastic step passes through here, so this is where a scheme the
    route does not simulate is rejected.
    """
    if spec.dim != 2:
        raise ValueError("the stochastic route covers single-qubit monitoring schemes only")
    m, c, F = monitored_qubit(spec)
    H, channels = feedback_terms(c, F, spec.eta)
    (_, n), (undetected, _) = channels
    a = IDENTITY - dt * (1j * H + 0.5 * sum(rate * (L.conj().T @ L) for rate, L in channels))
    # np.kron(x, y.conj()) is rho -> x rho y+ on row-major vectorized matrices
    measured = coordinate_matrix(np.kron(m, IDENTITY) + np.kron(IDENTITY, m.conj()))
    maps = np.concatenate([
        coordinate_matrix(np.kron(a, a.conj()) + undetected * dt * np.kron(c, c.conj())),
        coordinate_matrix(np.kron(n, a.conj()) + np.kron(a, n.conj())),
        coordinate_matrix(np.kron(n, n.conj())),
        measured[:1] + measured[1:2],
    ])
    nonzero = maps != 0
    counts = nonzero.sum(axis=1)
    if counts.max() > 2:
        row = int(counts.argmax())
        raise ValueError(f"step map row {row} has {counts[row]} nonzero entries; "
                         "an exact split takes at most two")
    rank = nonzero * nonzero.cumsum(axis=1)  # of each nonzero entry in its row
    parts = np.concatenate([np.where(rank == p, maps, 0.0) for p in range(1, counts.max() + 1)])
    parts.flags.writeable = False
    return parts


def _step_buffers(maps: np.ndarray, n: int) -> tuple:
    """Views into one work array for :func:`_kraus_step` with these maps on n
    trajectories, each bound once: at a few trajectories a step costs its
    number of numpy calls, not its arithmetic.  The array holds the product
    of every part of the maps, and rows 13-18 the step's temporaries; where
    the maps have two parts those rows are the second part, read once, by
    its add, before the temporaries are written.
    """
    work = np.empty((max(len(maps), 19), n))
    products, mapped, temps = work[:len(maps)], work[:13], work[13:19]
    extra = tuple(products[start:start + 13] for start in range(13, len(maps), 13))
    tilde = temps[:4]
    return (products, extra, mapped, mapped[12], mapped[:4], mapped[4:8], mapped[8:12],
            temps[4], tilde, tilde[0], tilde[1], temps[5])


def _kraus_step(c: np.ndarray, dw, amp_dt: float, maps: np.ndarray, buffers: tuple):
    """Advance the (4, n) coordinates c by one Kraus step, in place.

    dw is the Wiener increment, one entry per trajectory (or a scalar);
    amp_dt is sqrt(eta gamma) dt; maps comes from _step_maps and buffers from
    _step_buffers(maps, n).  One BLAS product maps every part, and each part
    past the first is added into the first, in order.  Returns s_0 =
    <m + m+> of the pre-step states (the mean current over sqrt(eta gamma)),
    a view into buffers that is valid until the next step.
    """
    products, extra, mapped, s0, g0c, g1c, g2c, dy, tilde, tilde0, tilde1, trace = buffers
    # exact under any BLAS kernel: each part has one nonzero entry per row
    np.matmul(maps, c, out=products)
    for part in extra:
        np.add(mapped, part, mapped)
    np.multiply(s0, amp_dt, dy)
    np.add(dy, dw, dy)
    # c~ = G0 c + dy (G1 c + dy G2 c)
    np.multiply(dy, g2c, tilde)
    np.add(g1c, tilde, tilde)
    np.multiply(dy, tilde, tilde)
    np.add(g0c, tilde, tilde)
    np.add(tilde0, tilde1, trace)
    np.divide(tilde, trace, c)
    return s0


def sme_step(rho: np.ndarray, spec: SchemeSpec, dt: float, dw: float):
    """One Kraus step of the conditional state, plus the current sample.

    This is run_ensemble's step at one trajectory, in the coordinates of the
    module docstring; from a valid state and a finite increment it returns a
    valid state.

    Parameters
    ----------
    rho : np.ndarray
        2x2 conditional state at the start of the step; a matrix that
        operators.check_density rejects raises ValueError.
    spec : SchemeSpec
        A single-qubit scheme, with or without feedback.
    dt : float
        Step length in microseconds.
    dw : float
        Wiener increment for this step, variance dt; a non-finite one raises
        ValueError.

    Returns
    -------
    (rho_next, current)
        The conditional state after the step, and the homodyne current
        sample for the interval,
        sqrt(eta gamma) <m + m+> + dw / (sqrt(eta) dt), built from the
        pre-step state and this step's noise.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"conditional state must be 2x2, got {rho.shape}")
    check_density(rho)
    if not math.isfinite(dw):
        raise ValueError(f"Wiener increment must be finite, got {dw}")
    amp = math.sqrt(spec.eta * spec.gamma)
    x = _real_state(rho)[:, None]
    maps = _step_maps(spec, dt)
    s0 = _kraus_step(x, dw, amp * dt, maps, _step_buffers(maps, 1))
    current = amp * s0[0] + dw / (math.sqrt(spec.eta) * dt)
    U, _ = _COORDINATES[2]
    return (U @ x[:, 0]).reshape(2, 2), current


@dataclass(frozen=True)
class EnsembleResult:
    """Decimated ensemble summary plus the per-trajectory current records."""

    times: np.ndarray
    mean_pe: np.ndarray
    sem_pe: np.ndarray
    records: list


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx, after
# M. E. O'Neill's seed_seq design): the hashmix multipliers of the entropy
# pool and of generate_state, and mix's
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _substream_states(seed: int, n: int) -> np.ndarray:
    """PCG64 state words of trajectories 0 .. n-1, as an (n, 4) uint64 array.

    Row i is np.random.SeedSequence((seed, i)).generate_state(4, np.uint64),
    computed for all i at once: SeedSequence hashes its entropy words
    [seed's 32-bit words, low first..., i] into a pool of four words and
    hashes the pool out again, and every multiplier of that hash depends only
    on how many words came before, never on their values.  So each pool word
    is one uint32 array over i, and numpy's wrapping uint32 arithmetic is
    the hash's.  An i of 2**32 or more would add an entropy word, so n above
    2**32 is rejected rather than drawn from streams numpy would not give.
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if n > 2**32:
        raise ValueError(f"at most 2**32 trajectories have one-word substream keys, got {n}")
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    entropy = [np.full(n, word, dtype=np.uint32) for word in words]
    entropy.append(np.arange(n, dtype=np.uint32))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    zero = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(entropy[k] if k < len(entropy) else zero) for k in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state(4, np.uint64): eight 32-bit words cycling over the pool,
    # read in little-endian pairs
    state = np.empty((n, 8), dtype="<u4")
    hash_const = _INIT_B
    for k in range(8):
        value = pool[k % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state[:, k] = value ^ (value >> 16)
    return state.view("<u8").astype(np.uint64)


@functools.cache
def _preset_seed_type():
    """A numpy ISeedSequence whose generate_state returns the words it holds.

    Made on first use, so numpy.random is loaded only by a stochastic run.
    """
    from numpy.random.bit_generator import ISeedSequence

    class PresetSeed(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return PresetSeed


def _noise_blocks(seed: int, n_traj: int, n_steps: int, sd: float):
    """Yield every trajectory's Wiener increments as (steps, n_traj) time blocks.

    Column i continues the stream of SeedSequence((seed, i)) from block to
    block, so the blocks of a column concatenate to one draw of n_steps.
    The state words of all n_traj PCG64 generators come from one pass of
    _substream_states, so no SeedSequence is built per trajectory; each
    generator then draws exactly the stream its SeedSequence would give.
    Each trajectory keeps one live generator for the whole draw and fills its
    own row of a row-major (n_traj, chunk) buffer of at most _NOISE_BYTES
    (one step at the least); a block is the transposed view of that buffer,
    so a step's increments are a strided column.  Scaling standard normals
    by sd in place gives the bits Generator.normal(0, sd) returns.  The
    n_traj generators (about 1.5 MB at 2000, by tracemalloc) are bounded by
    n_traj, as the coordinate array of run_ensemble is.
    """
    chunk = max(1, min(n_steps, _NOISE_BYTES // (8 * n_traj)))
    buf = np.empty((n_traj, chunk))
    preset = _preset_seed_type()
    generator, pcg64 = np.random.Generator, np.random.PCG64
    rngs = [generator(pcg64(preset(words))) for words in _substream_states(seed, n_traj)]
    for start in range(0, n_steps, chunk):
        block = buf[:, :min(chunk, n_steps - start)]
        for rng, row in zip(rngs, block):
            rng.standard_normal(out=row)
        np.multiply(block, sd, block)
        yield block.T


def run_ensemble(spec: SchemeSpec, config: TrajectoryConfig) -> EnsembleResult:
    """Simulate config.n_trajectories conditional trajectories in lockstep.

    All trajectories are one real (4, n_trajectories) array of coordinates,
    P_e first, advanced together by the Kraus step of the module docstring,
    which keeps every state physical without repair.  Each step contracts the
    coordinates with the parts of the split maps (_step_maps) in one BLAS
    product and adds the parts: one part per entry of the longest map row,
    one at eta = 1 without feedback and phi = 0 (nine numpy calls a step, no
    add), two otherwise.  A part has at most one nonzero entry per row, so
    whichever kernel BLAS picks for the batch width, every entry of the
    product is one coefficient times one coordinate, rounded once, and the
    add of a second part rounds the sum of the two once more.  So each
    trajectory's arithmetic does not depend on how many run beside it.  Only
    single-qubit schemes are accepted.

    Trajectory i draws its noise from a PCG64 generator seeded as by
    np.random.SeedSequence((seed, i)), so any single trajectory can be
    reproduced in isolation and enlarging the ensemble never perturbs
    existing members.  The state words of all the generators are hashed in
    one vectorized pass (_substream_states), bit for bit numpy's, so set-up
    costs about the two constructors per trajectory.  The noise is drawn in
    time chunks of at most _NOISE_BYTES, each continuing every trajectory's
    own live generator, so memory stays bounded by n_trajectories as the
    horizon grows and the result does not depend on the chunk size.
    Populations and currents are decimated to the sample period config.tau;
    the current sample at index k is taken over the step beginning at
    t = k tau.
    """
    maps = _step_maps(spec, config.dt)
    check_step_size(spec, config)
    n_steps = config.n_steps
    stride = config.sample_stride
    if n_steps % stride != 0:
        raise ValueError("t_final must be a whole number of sample periods tau")
    n_traj = config.n_trajectories
    n_samples = n_steps // stride

    dt = config.dt
    amp = math.sqrt(spec.eta * spec.gamma)
    amp_dt = amp * dt
    noise_gain = 1.0 / (math.sqrt(spec.eta) * dt)
    c = np.repeat(_real_state(_initial_state(spec, config))[:, None], n_traj, axis=1)
    pe = np.empty((n_traj, n_samples + 1))
    pe[:, 0] = c[0]
    currents = np.empty((n_traj, n_samples))
    buffers = _step_buffers(maps, n_traj)

    step = 0
    for block in _noise_blocks(config.seed, n_traj, n_steps, math.sqrt(dt)):
        for dw in block:
            s0 = _kraus_step(c, dw, amp_dt, maps, buffers)
            if step % stride == 0:
                currents[:, step // stride] = amp * s0 + noise_gain * dw
            step += 1
            if step % stride == 0:
                pe[:, step // stride] = c[0]

    times = config.tau * np.arange(n_samples + 1)
    mean_pe = pe.mean(axis=0)
    if n_traj > 1:
        sem_pe = pe.std(axis=0, ddof=1) / math.sqrt(n_traj)
    else:
        sem_pe = np.zeros(n_samples + 1)
    records = [HomodyneRecord(config.tau, currents[i]) for i in range(n_traj)]
    return EnsembleResult(times=times, mean_pe=mean_pe, sem_pe=sem_pe, records=records)
