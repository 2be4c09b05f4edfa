"""Conditional homodyne trajectories for the monitored damped qubit.

The monitored qubit obeys the stochastic master equation

    drho = gamma D[sigma_-] rho dt + sqrt(eta gamma) H[m] rho dW,
    I dt  = sqrt(eta gamma) <m + m+> dt + dW / sqrt(eta),

where m = sigma_- exp(-i phi) is the collapse operator rotated by the
local-oscillator phase phi.  The current reads <m + m+>, which in the
excited-first basis is the quadrature sigma_x cos(phi) - sigma_y sin(phi)
(H. M. Wiseman and G. J. Milburn, Quantum Measurement and Control (2010),
ch. 4).

One step is the completely positive update of P. Rouchon and J. F. Ralph,
Phys. Rev. A 91, 012118 (2015).  With L = sqrt(gamma) m, A = I - L+L dt / 2,
B = sqrt(eta) L and the measured increment dy = sqrt(eta) <L + L+> dt + dW,

    rho <- M rho M+ + (1 - eta) dt L rho L+,    M = A + dy B,

renormalized to unit trace.  Their second-order term eta L^2 (dy^2 - dt) / 2
in M vanishes here because sigma_-^2 = 0.  The update is a sum of Kraus
terms, so it takes states to states at any eta: no step leaves the Bloch
ball, and nothing is repaired.  To first order in dt it is the SME above, so
averaging the conditional states over dW recovers the deterministic master
equation, which is what the ensemble-mean cross-checks in the tests lean on.

States are held as Pauli coordinates c = (1, x, y, z), c_j = tr(sigma_j rho),
the Bloch-vector form of the SME (K. Jacobs and D. A. Steck, Contemp. Phys.
47, 279 (2006)).  There every linear map on 2x2 matrices is a real 4x4
matrix, and expanding M rho M+ in powers of dy gives

    c~ = G0 c + dy G1 c + dy^2 G2 c,    c <- c~ / c~_0,

with G0, G1 and G2 the matrices of rho -> A rho A+ + (1 - eta) dt L rho L+,
rho -> B rho A+ + A rho B+ and rho -> B rho B+.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    SchemeKind,
    SchemeSpec,
    TrajectoryConfig,
    _initial_state,
    check_step_size,
)
from .operators import (
    IDENTITY,
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    # kept importable here: perfbench/tests/test_bench_tracing.py looks it up
    project_physical,  # noqa: F401
)
from .traces import HomodyneRecord

# Largest noise block run_ensemble holds at once, in bytes: the Wiener
# increments are drawn in time chunks of at most this size, so memory stays
# bounded however long the horizon.  Blocks of ~13 MB, freed at the end of
# each call, were seen to stay resident in the malloc heap across calls;
# 4 MiB blocks were not.
_NOISE_BYTES = 4 * 2**20
_PAULI = np.stack([IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z])


def _pauli_matrix(X) -> np.ndarray:
    """Real 4x4 matrix R[j, k] = tr(sigma_j X(sigma_k)) / 2 of a linear map X
    on 2x2 matrices, acting on Pauli coordinates c_j = tr(sigma_j rho)."""
    images = np.stack([X(sigma) for sigma in _PAULI])
    return 0.5 * np.einsum("jab,kba->jk", _PAULI, images).real


def _coordinates(rho: np.ndarray) -> np.ndarray:
    """Pauli coordinates (1, x, y, z) of a 2x2 state, normalized to unit trace."""
    c = np.einsum("jab,ba->j", _PAULI, rho).real
    return c / c[0]


@functools.lru_cache(maxsize=128)
def _step_maps(spec: SchemeSpec, dt: float) -> np.ndarray:
    """Read-only (13, 4) step maps for a (4, n) coordinate array: rows 0-3,
    4-7 and 8-11 are G0, G1 and G2 (see the module docstring), row 12 gives
    s_0 = <m + m+>.

    Every stochastic step passes through here, so this is where a scheme the
    route does not simulate is rejected.
    """
    if spec.kind is not SchemeKind.NO_FEEDBACK:
        raise ValueError("the stochastic route simulates no_feedback schemes only, "
                         f"got {spec.kind.value}")
    m = SIGMA_MINUS * np.exp(-1j * spec.phi_lo)
    jump = math.sqrt(spec.gamma) * m
    a = IDENTITY - 0.5 * dt * (jump.conj().T @ jump)
    b = math.sqrt(spec.eta) * jump
    ad, bd, jd = a.conj().T, b.conj().T, jump.conj().T
    maps = np.concatenate([
        _pauli_matrix(lambda rho: a @ rho @ ad + (1.0 - spec.eta) * dt * (jump @ rho @ jd)),
        _pauli_matrix(lambda rho: b @ rho @ ad + a @ rho @ bd),
        _pauli_matrix(lambda rho: b @ rho @ bd),
        _pauli_matrix(lambda rho: m @ rho + rho @ m.conj().T)[:1],
    ])
    maps.flags.writeable = False
    return maps


def _step_buffers(n: int) -> tuple:
    """Work arrays for :func:`_kraus_step` on n trajectories, written in place:
    at a few trajectories a step costs its number of numpy calls, not its
    arithmetic."""
    return np.empty((13, n)), np.empty(n), np.empty((4, n))


def _kraus_step(c: np.ndarray, dw, amp_dt: float, maps: np.ndarray, buffers: tuple):
    """Advance the (4, n) Pauli coordinates c by one Kraus step, in place.

    dw is the Wiener increment, one entry per trajectory (or a scalar);
    amp_dt is sqrt(eta gamma) dt; maps comes from _step_maps and buffers from
    _step_buffers(n).  Returns s_0 = <m + m+> of the pre-step states (the
    mean current over sqrt(eta gamma)), a view into buffers that is valid
    until the next step.
    """
    mapped, dy, tilde = buffers
    # every row of maps has at most two nonzero entries, so no kernel einsum
    # picks can change a sum's rounding: a lone trajectory repeats its batch
    # column bit for bit
    np.einsum("jk,kn->jn", maps, c, out=mapped)
    s0 = mapped[12]
    np.multiply(s0, amp_dt, dy)
    np.add(dy, dw, dy)
    # c~ = G0 c + dy (G1 c + dy G2 c)
    np.multiply(dy, mapped[8:12], tilde)
    np.add(mapped[4:8], tilde, tilde)
    np.multiply(dy, tilde, tilde)
    np.add(mapped[:4], tilde, tilde)
    np.divide(tilde, tilde[0], c)
    return s0


def sme_step(rho: np.ndarray, spec: SchemeSpec, dt: float, dw: float):
    """One Kraus step of the conditional state, plus the current sample.

    This is run_ensemble's step at one trajectory, in Pauli coordinates (see
    the module docstring); it always returns a valid state.

    Parameters
    ----------
    rho : np.ndarray
        2x2 conditional state at the start of the step; it is taken as
        Hermitian and normalized to unit trace.
    spec : SchemeSpec
        Provides gamma, eta and phi_lo; only no_feedback schemes are accepted.
    dt : float
        Step length in microseconds.
    dw : float
        Wiener increment for this step, variance dt.

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
    amp = math.sqrt(spec.eta * spec.gamma)
    c = _coordinates(rho)[:, None]
    s0 = _kraus_step(c, dw, amp * dt, _step_maps(spec, dt), _step_buffers(1))
    current = amp * s0[0] + dw / (math.sqrt(spec.eta) * dt)
    return 0.5 * np.einsum("jab,j->ab", _PAULI, c[:, 0]), current


@dataclass(frozen=True)
class EnsembleResult:
    """Decimated ensemble summary plus the per-trajectory current records."""

    times: np.ndarray
    mean_pe: np.ndarray
    sem_pe: np.ndarray
    records: list


def _noise_blocks(seed: int, n_traj: int, n_steps: int, sd: float):
    """Yield every trajectory's Wiener increments as (steps, n_traj) time blocks.

    Column i continues the stream of SeedSequence((seed, i)) from block to
    block, so the blocks of a column concatenate to one draw of n_steps.  The
    blocks share one buffer of at most _NOISE_BYTES (one step at the least);
    between blocks only each trajectory's bit-generator state is kept, and
    the states are restored one at a time into a single Generator.
    """
    chunk = max(1, min(n_steps, _NOISE_BYTES // (8 * n_traj)))
    buf = np.empty((chunk, n_traj))
    rng = np.random.Generator(np.random.PCG64())
    states = [None] * n_traj
    for start in range(0, n_steps, chunk):
        block = buf[:min(chunk, n_steps - start)]
        more = start + chunk < n_steps
        for i in range(n_traj):
            rng.bit_generator.state = (
                states[i] or np.random.PCG64(np.random.SeedSequence((seed, i))).state)
            block[:, i] = rng.normal(0.0, sd, len(block))
            if more:
                states[i] = rng.bit_generator.state
        yield block


def run_ensemble(spec: SchemeSpec, config: TrajectoryConfig) -> EnsembleResult:
    """Simulate config.n_trajectories conditional trajectories in lockstep.

    All trajectories are one real (4, n_trajectories) array of Pauli
    coordinates c = (1, x, y, z), advanced together by the Kraus step of the
    module docstring, which keeps every state physical without repair.  The
    maps are contracted so that each trajectory's arithmetic does not depend
    on how many run beside it.  Only no_feedback schemes are accepted.

    Trajectory i draws its noise from np.random.SeedSequence((seed, i)), so
    any single trajectory can be reproduced in isolation and enlarging the
    ensemble never perturbs existing members.  The noise is drawn in time
    chunks of at most _NOISE_BYTES, each continuing every trajectory's own
    stream, so memory stays bounded as the horizon grows and the result does
    not depend on the chunk size.  Populations and currents are decimated to
    the sample period config.tau; the current sample at index k is taken over
    the step beginning at t = k tau.
    """
    if spec.dim != 2:
        raise ValueError("run_ensemble covers single-qubit monitoring schemes only")
    maps = _step_maps(spec, config.dt)
    check_step_size(spec, config)
    n_steps = config.n_steps
    stride = config.sample_stride
    if n_steps % stride != 0:
        raise ValueError("t_final must be a whole number of sample periods tau")
    n_traj = int(config.n_trajectories)
    n_samples = n_steps // stride

    dt = config.dt
    amp = math.sqrt(spec.eta * spec.gamma)
    amp_dt = amp * dt
    noise_gain = 1.0 / (math.sqrt(spec.eta) * dt)
    c0 = _coordinates(_initial_state(spec, config))
    # each step divides by c~_0, so c_0 = 1 holds exactly
    c = np.repeat(c0[:, None], n_traj, axis=1)
    pe = np.empty((n_traj, n_samples + 1))
    pe[:, 0] = 0.5 * (c[0] + c[3])
    currents = np.empty((n_traj, n_samples))
    buffers = _step_buffers(n_traj)

    step = 0
    for block in _noise_blocks(config.seed, n_traj, n_steps, math.sqrt(dt)):
        # the noise part of the currents sampled in this block; amp s_0 is
        # added at the sampled step
        sampled = block[-step % stride::stride].T
        k = -(-step // stride)
        np.multiply(sampled, noise_gain, currents[:, k:k + sampled.shape[1]])
        for dw in block:
            s0 = _kraus_step(c, dw, amp_dt, maps, buffers)
            if step % stride == 0:
                currents[:, step // stride] += amp * s0
            step += 1
            if step % stride == 0:
                pe[:, step // stride] = 0.5 * (c[0] + c[3])

    times = config.tau * np.arange(n_samples + 1)
    mean_pe = pe.mean(axis=0)
    if n_traj > 1:
        sem_pe = pe.std(axis=0, ddof=1) / math.sqrt(n_traj)
    else:
        sem_pe = np.zeros(n_samples + 1)
    records = [HomodyneRecord(config.tau, currents[i]) for i in range(n_traj)]
    return EnsembleResult(times=times, mean_pe=mean_pe, sem_pe=sem_pe, records=records)
