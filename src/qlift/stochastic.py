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

States are held as Pauli coordinates r = (1, x, y, z), r_j = tr(sigma_j rho),
the Bloch-vector form of the SME (K. Jacobs and D. A. Steck, Contemp. Phys.
47, 279 (2006)).  There every linear map on 2x2 matrices is a real 4x4
matrix, and expanding M rho M+ in powers of dy gives

    r~ = G0 r + dy G1 r + dy^2 G2 r,    r <- r~ / r~_0,

with G0, G1 and G2 the matrices of rho -> A rho A+ + (1 - eta) dt c rho c+,
rho -> B rho A+ + A rho B+ and rho -> B rho B+.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    SchemeSpec,
    TrajectoryConfig,
    _initial_state,
    check_step_size,
    feedback_terms,
    monitored_qubit,
)
from .operators import (
    IDENTITY,
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
    if spec.dim != 2:
        raise ValueError("the stochastic route covers single-qubit monitoring schemes only")
    m, c, F = monitored_qubit(spec)
    H, channels = feedback_terms(c, F, spec.eta)
    (_, n), (undetected, _) = channels
    a = IDENTITY - dt * (1j * H + 0.5 * sum(rate * (L.conj().T @ L) for rate, L in channels))
    ad, nd, cd = a.conj().T, n.conj().T, c.conj().T
    maps = np.concatenate([
        _pauli_matrix(lambda rho: a @ rho @ ad + undetected * dt * (c @ rho @ cd)),
        _pauli_matrix(lambda rho: n @ rho @ ad + a @ rho @ nd),
        _pauli_matrix(lambda rho: n @ rho @ nd),
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
        A single-qubit scheme, with or without feedback.
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
    block, so the blocks of a column concatenate to one draw of n_steps.
    Each trajectory keeps one live generator for the whole draw and fills its
    own row of a row-major (n_traj, chunk) buffer of at most _NOISE_BYTES
    (one step at the least); a block is the transposed view of that buffer,
    so a step's increments are a strided column.  Scaling standard normals
    by sd in place gives the bits Generator.normal(0, sd) returns.  The
    n_traj generators (about 2.5 MB at 2000) are bounded by n_traj, as the
    coordinate array of run_ensemble is.
    """
    chunk = max(1, min(n_steps, _NOISE_BYTES // (8 * n_traj)))
    buf = np.empty((n_traj, chunk))
    rngs = [np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, i))))
            for i in range(n_traj)]
    for start in range(0, n_steps, chunk):
        block = buf[:, :min(chunk, n_steps - start)]
        for rng, row in zip(rngs, block):
            rng.standard_normal(out=row)
        np.multiply(block, sd, block)
        yield block.T


def run_ensemble(spec: SchemeSpec, config: TrajectoryConfig) -> EnsembleResult:
    """Simulate config.n_trajectories conditional trajectories in lockstep.

    All trajectories are one real (4, n_trajectories) array of Pauli
    coordinates c = (1, x, y, z), advanced together by the Kraus step of the
    module docstring, which keeps every state physical without repair.  The
    maps are contracted so that each trajectory's arithmetic does not depend
    on how many run beside it.  Only single-qubit schemes are accepted.

    Trajectory i draws its noise from np.random.SeedSequence((seed, i)), so
    any single trajectory can be reproduced in isolation and enlarging the
    ensemble never perturbs existing members.  The noise is drawn in time
    chunks of at most _NOISE_BYTES, each continuing every trajectory's own
    live generator, so memory stays bounded by n_trajectories as the horizon
    grows and the result does not depend on the chunk size.  Populations and
    currents are decimated to the sample period config.tau; the current
    sample at index k is taken over the step beginning at t = k tau.
    """
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
        for dw in block:
            s0 = _kraus_step(c, dw, amp_dt, maps, buffers)
            if step % stride == 0:
                currents[:, step // stride] = amp * s0 + noise_gain * dw
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
