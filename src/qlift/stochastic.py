"""Conditional homodyne trajectories for the monitored damped qubit.

The stochastic master equation is integrated with fixed-step Euler-Maruyama.
The measurement back-action enters through the phase-rotated collapse
operator m = sigma_- exp(-i phi), phi being the local-oscillator phase.  At
phi = 0 (the default) this is the textbook form

    drho = -i[H, rho] dt + gamma D[sigma_-] rho dt
           + sqrt(eta gamma) H[sigma_-] rho dW,
    I dt  = sqrt(eta gamma) <sigma_x> dt + dW / sqrt(eta).

:func:`sme_step` advances one 2x2 complex state; it is the single-trajectory
reference that the ensemble is tested against at eta < 1.  :func:`run_ensemble`
advances a whole ensemble at once in Pauli coordinates c = (1, x, y, z),
c_j = tr(sigma_j rho), the Bloch-vector form of the SME (K. Jacobs and
D. A. Steck, Contemp. Phys. 47, 279 (2006)).  There the drift and the map
rho -> m rho + rho m+ are real 4x4 matrices D and K, and one step is

    s = K c,    c <- (I + dt D) c + sqrt(eta gamma) dW (s - s_0 c),

with s_0 = <m + m+> the mean of the current.  A finite step can leave the
state space: for a unit-trace 2x2 state det rho = (1 - |r|^2) / 4 with
r = (x, y, z), so that happens exactly when |r| > 1, and clipping the
negative eigenvalue and renormalizing (what project_physical does) gives
r / |r|.  The ensemble's repair is therefore r <- r / max(1, |r|).

At eta = 1 every emission is detected and the exact SME keeps a pure state
pure, but an Euler step moves it off the Bloch sphere to either side.
Clipping only the outward steps lets pure states drift inward, which biases
the ensemble's mean P_e low by an amount that shrinks only as sqrt(dt)
(2.4 standard errors of a 2000-trajectory mean at t = 0.5, dt = 0.0025).  So
at eta = 1 a trajectory on the sphere (a pure initial state, or one the clip
has put there) is put back on it after every step: r <- r / |r|.
sme_step keeps the plain clip.

In the excited-first basis m + m+ = sigma_x cos(phi) - sigma_y sin(phi), which
is the quadrature run_ensemble's current reads; sme_step's current reads
quadrature_operator(phi) = sigma_x cos(phi) + sigma_y sin(phi).  The two
agree at phi = 0 and phi = pi.

Averaging the conditional states over dW recovers the deterministic master
equation, which is what the ensemble-mean cross-check in the tests leans on.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    SchemeSpec,
    TrajectoryConfig,
    _initial_state,
    check_step_size,
    no_feedback_generator,
)
from .operators import (
    IDENTITY,
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    project_physical,
    quadrature_operator,
)
from .traces import HomodyneRecord

# Largest noise block run_ensemble holds at once, in bytes: the Wiener
# increments are drawn in time chunks of at most this size, so memory stays
# bounded however long the horizon.  Blocks of ~13 MB, freed at the end of
# each call, were seen to stay resident in the malloc heap across calls;
# 4 MiB blocks were not.
_NOISE_BYTES = 4 * 2**20
_PAULI = np.stack([IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z])


def hsup(L: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Measurement superoperator H[L] rho = L rho + rho L+ - tr((L + L+) rho) rho."""
    Ld = L.conj().T
    s = L @ rho + rho @ Ld
    return s - np.trace(s).real * rho


def sme_step(rho: np.ndarray, spec: SchemeSpec, dt: float, dw: float):
    """One Euler-Maruyama step of the conditional state, plus the current sample.

    Parameters
    ----------
    rho : np.ndarray
        2x2 conditional state at the start of the step.
    spec : SchemeSpec
        Provides gamma, eta, phi_lo, omega_s.
    dt : float
        Step length in microseconds.
    dw : float
        Wiener increment for this step, variance dt.

    Returns
    -------
    (rho_next, current)
        The repaired conditional state after the step and the homodyne
        current sample for the interval, built from the pre-step state and
        this step's noise.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"conditional state must be 2x2, got {rho.shape}")
    m = SIGMA_MINUS * np.exp(-1j * spec.phi_lo)
    amp = math.sqrt(spec.eta * spec.gamma)

    current = amp * np.trace(quadrature_operator(spec.phi_lo) @ rho).real
    current += dw / (math.sqrt(spec.eta) * dt)

    drift = no_feedback_generator(spec, rho)
    rho_next = rho + dt * drift + amp * dw * hsup(m, rho)
    return project_physical(rho_next), current


@dataclass(frozen=True)
class EnsembleResult:
    """Decimated ensemble summary plus the per-trajectory current records."""

    times: np.ndarray
    mean_pe: np.ndarray
    sem_pe: np.ndarray
    records: list


def _pauli_matrix(X) -> np.ndarray:
    """Real 4x4 matrix R[j, k] = tr(sigma_j X(sigma_k)) / 2 of a linear map X
    on 2x2 matrices, acting on Pauli coordinates c_j = tr(sigma_j rho)."""
    images = np.stack([X(sigma) for sigma in _PAULI])
    return 0.5 * np.einsum("jab,kba->jk", _PAULI, images).real


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
    coordinates c = (1, x, y, z), advanced together by the real 4x4 drift and
    measurement maps and repaired in closed form: r <- r / max(1, |r|), and
    at eta = 1 r <- r / |r| for a trajectory on the Bloch sphere (see the
    module docstring).  The maps are contracted by broadcasting, so each
    trajectory's arithmetic does not depend on how many run beside it.

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
    check_step_size(spec, config)
    n_steps = config.n_steps
    stride = config.sample_stride
    if n_steps % stride != 0:
        raise ValueError("t_final must be a whole number of sample periods tau")
    n_traj = int(config.n_trajectories)
    n_samples = n_steps // stride

    dt = config.dt
    amp = math.sqrt(spec.eta * spec.gamma)
    noise_gain = 1.0 / (math.sqrt(spec.eta) * dt)
    m = SIGMA_MINUS * np.exp(-1j * spec.phi_lo)
    md = m.conj().T
    # rows 0-3 give (I + dt D) c, rows 4-7 give s = K c
    maps = np.concatenate([
        np.eye(4) + dt * _pauli_matrix(lambda rho: no_feedback_generator(spec, rho)),
        _pauli_matrix(lambda rho: m @ rho + rho @ md),
    ])
    cols = [maps[:, k, None] for k in range(4)]

    c0 = np.einsum("jab,ba->j", _PAULI, _initial_state(spec, config)).real
    # c_0 = 1 then holds exactly: the drift's trace row is zero and the kick
    # s - s_0 c has a zero trace component
    c = np.repeat((c0 / c0[0])[:, None], n_traj, axis=1)
    # r is divided by max(floor, |r|): floor 1 pulls a state back into the
    # Bloch ball, floor 0 puts it on the sphere; at eta = 1 a trajectory that
    # reaches the sphere is held there
    keep_pure = spec.eta == 1.0
    on_sphere = keep_pure and c[1:, 0] @ c[1:, 0] >= 1.0
    floor = np.full(n_traj, 0.0 if on_sphere else 1.0)
    pe = np.empty((n_traj, n_samples + 1))
    pe[:, 0] = 0.5 * (c[0] + c[3])
    currents = np.empty((n_traj, n_samples))

    step = 0
    for block in _noise_blocks(config.seed, n_traj, n_steps, math.sqrt(dt)):
        for dw in block:
            out = cols[0] * c[0] + cols[1] * c[1] + cols[2] * c[2] + cols[3] * c[3]
            s = out[4:]
            if step % stride == 0:
                currents[:, step // stride] = amp * s[0] + dw * noise_gain
            c = out[:4] + (amp * dw) * (s - s[0] * c)
            norm = np.sqrt((c[1:] ** 2).sum(axis=0))
            c[1:] /= np.maximum(floor, norm)
            if keep_pure:
                floor[norm > 1.0] = 0.0
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
