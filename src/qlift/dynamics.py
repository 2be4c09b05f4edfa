"""Deterministic master-equation engines for the qubit control schemes.

A scheme generator is a function ``gen(spec, rho) -> drho_dt``.  Generators
return the full right-hand side of the master equation, so independent decay
channels can be composed by addition.  The generators here also accept an
``(n, d, d)`` stack of states and return the stack of their right-hand sides.
All generators here are linear and time-invariant, so
:func:`integrate_deterministic` writes one RK4 step as a fixed matrix and
advances whole blocks of steps with its precomputed powers.  A Lindblad
generator keeps Hermiticity, so that matrix is real in the coordinates
x = (rho_ii; Re rho_ij, Im rho_ij for i < j) of a Hermitian state, and the
integrator works in them.
"""

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .operators import (
    IDENTITY,
    PROJ_EXCITED,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Y,
    check_density,
    dissipator,
    excited_state,
    tensor,
)
from .traces import PE_TOLERANCE, PopulationTrace


class IntegrationError(RuntimeError):
    """State invariants drifted beyond tolerance during integration."""


class SchemeKind(Enum):
    NO_FEEDBACK = "no_feedback"
    WISEMAN_MILBURN = "wiseman_milburn"
    ANCILLA_COHERENT = "ancilla_coherent"


_BLOCK = 512  # steps per block in integrate_deterministic: 1 MB of powers at dim 4
# multiply-adds per matrix-matrix product: half of the 262,144 above
# which OpenBLAS splits a product over threads, which stalls some processes
_GEMM_MADDS = 1 << 17

# two-qubit operators of the ancilla scheme (system factor first), read-only
_SIGMA_MINUS_S = tensor(SIGMA_MINUS, IDENTITY)
_SIGMA_MINUS_A = tensor(IDENTITY, SIGMA_MINUS)
_SIGMA_Y_A = tensor(IDENTITY, SIGMA_Y)
_EXCHANGE = tensor(SIGMA_PLUS, SIGMA_MINUS) + tensor(SIGMA_MINUS, SIGMA_PLUS)
_PROJ_EXCITED_S = tensor(PROJ_EXCITED, IDENTITY)
for _op in (_SIGMA_MINUS_S, _SIGMA_MINUS_A, _SIGMA_Y_A, _EXCHANGE, _PROJ_EXCITED_S):
    _op.setflags(write=False)


def _hermitian_basis(dim: int) -> tuple:
    """(U, V) with vec rho = U x and x = V vec rho, for the real coordinates
    x = (rho_ii; Re rho_ij, Im rho_ij for i < j) of a Hermitian dim x dim
    matrix, vec row-major.  V U is the identity exactly."""
    n = dim * dim
    U = np.zeros((n, n), dtype=complex)
    V = np.zeros((n, n), dtype=complex)
    for i in range(dim):
        U[i * dim + i, i] = V[i, i * dim + i] = 1.0
    for k, (i, j) in enumerate(itertools.combinations(range(dim), 2)):
        re, im, ij, ji = dim + 2 * k, dim + 2 * k + 1, i * dim + j, j * dim + i
        U[ij, re] = U[ji, re] = 1.0
        U[ij, im], U[ji, im] = 1j, -1j
        V[re, ij] = V[re, ji] = 0.5
        V[im, ij], V[im, ji] = -0.5j, 0.5j
    U.setflags(write=False)
    V.setflags(write=False)
    return U, V


_COORDINATES = {dim: _hermitian_basis(dim) for dim in (2, 4)}  # read-only


def coordinate_matrix(L: np.ndarray) -> np.ndarray:
    """Real matrix V L U, in the coordinates of _COORDINATES, of the linear map
    on square matrices whose matrix on row-major vectorized ones is L.  Raises
    ValueError when the map does not keep Hermiticity: V L U has an imaginary
    part above 1e-12 max|L|."""
    U, V = _COORDINATES[math.isqrt(len(L))]
    M = V @ L @ U
    leak = np.abs(M.imag).max()
    if leak > 1e-12 * np.abs(L).max():
        raise ValueError(f"map does not keep Hermiticity: imaginary part {leak:.3e}")
    return np.ascontiguousarray(M.real)


@dataclass(frozen=True)
class SchemeSpec:
    """Physical parameters of one control scheme.

    Rates (gamma, kappa) and couplings (g, lambda_gain) are in
    inverse microseconds; eta is the homodyne detection efficiency; phi_lo
    is the local-oscillator phase in radians (see monitored_qubit).
    """

    kind: SchemeKind
    gamma: float
    eta: float = 1.0
    lambda_gain: float = 0.0
    g: float = 0.0
    kappa: float = 0.0
    phi_lo: float = 0.0

    def __post_init__(self):
        if not isinstance(self.kind, SchemeKind):
            raise ValueError(f"kind must be a SchemeKind, got {self.kind!r}")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be positive, got {self.gamma!r}")
        if not (math.isfinite(self.eta) and 0.0 < self.eta <= 1.0):
            raise ValueError(f"eta must lie in (0, 1], got {self.eta!r}")
        for name in ("lambda_gain", "g", "kappa"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be >= 0 and finite, got {v!r}")
        if not math.isfinite(self.phi_lo):
            raise ValueError("phi_lo must be finite")

    @property
    def dim(self) -> int:
        return 4 if self.kind is SchemeKind.ANCILLA_COHERENT else 2

    @property
    def applied_gain(self) -> float:
        """The feedback gain the scheme applies: no feedback applies none."""
        return 0.0 if self.kind is SchemeKind.NO_FEEDBACK else self.lambda_gain

    @property
    def fastest_rate(self) -> float:
        """Largest rate scale in the generator; sets the step-size bound."""
        return max(self.gamma, self.kappa, self.g, self.applied_gain ** 2)


@dataclass(frozen=True)
class TrajectoryConfig:
    """Integration grid and ensemble bookkeeping.

    tau is the output sample period (a whole multiple of dt); results are
    decimated to that grid where the interface says so.  initial_state of
    None means "system excited, ancilla in ground".
    """

    dt: float
    t_final: float
    seed: int = 0
    n_trajectories: int = 1
    tau: float | None = None
    initial_state: np.ndarray | None = None

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if not (math.isfinite(self.t_final) and self.t_final >= self.dt):
            raise ValueError("t_final must be at least one step long")
        for name, least in (("seed", 0), ("n_trajectories", 1)):
            v = getattr(self, name)
            if not (v % 1 == 0 and v >= least):  # v % 1 is nan for an infinite or nan v
                raise ValueError(f"{name} must be an integer >= {least}, got {v!r}")
            object.__setattr__(self, name, int(v))
        tau = self.dt if self.tau is None else self.tau
        object.__setattr__(self, "tau", float(tau))
        stride = self.tau / self.dt
        if abs(stride - round(stride)) > 1e-9 * max(1.0, stride):
            raise ValueError(f"tau={self.tau} is not a whole multiple of dt={self.dt}")
        steps = self.t_final / self.dt
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(f"t_final={self.t_final} is not a whole multiple of dt={self.dt}")
        if self.initial_state is not None:
            state = np.asarray(self.initial_state, dtype=complex)
            check_density(state)
            object.__setattr__(self, "initial_state", state)

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))

    @property
    def sample_stride(self) -> int:
        return int(round(self.tau / self.dt))


def max_step(spec: SchemeSpec) -> float:
    """The step bound 0.01 / (fastest rate in the generator)."""
    return 0.01 / spec.fastest_rate


def fewest_steps(span: float, step: float) -> int:
    """The fewest equal steps of at most step (to a relative 1e-12) that fill span."""
    return math.ceil(span / step * (1.0 - 1e-12))


def check_step_size(spec: SchemeSpec, config: TrajectoryConfig) -> None:
    """Enforce dt <= max_step(spec)."""
    if fewest_steps(config.dt, max_step(spec)) > 1:
        raise ValueError(f"dt={config.dt} too large for rate scale {spec.fastest_rate}; "
                         f"need dt <= {max_step(spec):.3e}")


def _initial_state(spec: SchemeSpec, config: TrajectoryConfig) -> np.ndarray:
    """config.initial_state, or the scheme's excited state when it is None.

    Raises ValueError when the given state does not match the scheme's
    dimension.
    """
    rho0 = config.initial_state
    if rho0 is None:
        return excited_state(spec.dim)
    if rho0.shape != (spec.dim, spec.dim):
        raise ValueError(f"initial_state has shape {rho0.shape}, but the "
                         f"{spec.kind.value} scheme needs shape {(spec.dim, spec.dim)}")
    return rho0


def lindblad_rhs(H: np.ndarray, channels, rho: np.ndarray) -> np.ndarray:
    """General Lindblad right-hand side.

    Parameters
    ----------
    H : np.ndarray
        Hamiltonian, same dimension as rho.
    channels : sequence of (rate, operator)
        Decay channels; each contributes rate * D[operator] rho.
    rho : np.ndarray
        Density matrix, or a stack of them.
    """
    rho = np.asarray(rho, dtype=complex)
    out = -1j * (H @ rho - rho @ H)
    for rate, L in channels:
        if rate < 0:
            raise ValueError(f"channel rate must be >= 0, got {rate!r}")
        if rate == 0:
            continue
        out = out + rate * dissipator(L, rho)
    return out


def monitored_qubit(spec: SchemeSpec) -> tuple:
    """(m, c, F) of the monitored emission on the scheme's own space: the
    measured operator m = sigma_- exp(-i phi_lo), whose quadrature <m + m+> the
    current reads, the collapse operator c = sqrt(gamma) m, and the feedback
    operator F = lambda (-sigma_y), on the pair's ancilla and zero for no_feedback;
    at phi_lo = 0 a positive gain interferes destructively with the emission.
    """
    sigma_minus, sigma_y = (SIGMA_MINUS, SIGMA_Y) if spec.dim == 2 else (_SIGMA_MINUS_S, _SIGMA_Y_A)
    m = sigma_minus * np.exp(-1j * spec.phi_lo)
    return m, math.sqrt(spec.gamma) * m, spec.applied_gain * -sigma_y


def feedback_terms(c, F, eta) -> tuple:
    """Homodyne feedback with collapse operator c, feedback operator F and
    efficiency eta, as the (H', channels) arguments of lindblad_rhs:

        H' = (c+ F + F c) / 2,  D[N] + (1 - eta) D[c],  N = sqrt(eta) c - i F

    (H. M. Wiseman and G. J. Milburn, Quantum Measurement and Control (2010),
    ch. 5).  The measured channel N comes first.  This equals
    D[c - i sqrt(eta) F] + (1 - eta) D[F]: both reduce to D[c] + D[F] plus
    the same cross terms.  In its rotating frame a lone qubit has no other
    Hamiltonian; a caller with one (the pair's exchange coupling) adds it to H'.
    """
    H = 0.5 * (c.conj().T @ F + F @ c)
    return H, [(1.0, math.sqrt(eta) * c - 1j * F), (1.0 - eta, c)]


def no_feedback_generator(spec: SchemeSpec, rho: np.ndarray) -> np.ndarray:
    """Bare amplitude damping: gamma D[sigma_-] rho."""
    return spec.gamma * dissipator(SIGMA_MINUS, rho)


def wm_generator(spec: SchemeSpec, rho: np.ndarray) -> np.ndarray:
    """Homodyne-mediated feedback on a single qubit.

    The measured quadrature is fed back through F with gain lambda_gain (see
    monitored_qubit); at phi_lo = phi the excited population decays at
    gamma - 2 sqrt(eta gamma) lambda cos(phi) + 2 lambda^2.
    """
    _, c, F = monitored_qubit(spec)
    return lindblad_rhs(*feedback_terms(c, F, spec.eta), rho)


def ancilla_feedback_generator(spec: SchemeSpec, rho: np.ndarray) -> np.ndarray:
    """Coherent feedback routed onto the ancilla of a system-ancilla pair.

    The system's emission is detected and fed back as a drive on the ancilla
    quadrature; the exchange coupling g then carries the correction to the
    system, and the ancilla decays at kappa, as in ancilla_decay_generator.
    Dimension 4.
    """
    _, c, F = monitored_qubit(spec)
    H, channels = feedback_terms(c, F, spec.eta)
    return lindblad_rhs(spec.g * _EXCHANGE + H, channels + [(spec.kappa, _SIGMA_MINUS_A)], rho)


def ancilla_decay_generator(spec: SchemeSpec, rho: np.ndarray) -> np.ndarray:
    """Passive system-ancilla model: exchange coupling with both qubits damped.

    -i[H, rho] + gamma D[sigma_-^S] rho + kappa D[sigma_-^A] rho, with the
    rotating-frame H = g (sigma_+ (x) sigma_- + sigma_- (x) sigma_+).
    """
    channels = [(spec.gamma, _SIGMA_MINUS_S), (spec.kappa, _SIGMA_MINUS_A)]
    return lindblad_rhs(spec.g * _EXCHANGE, channels, rho)


def liouvillian_matrix(generator, spec: SchemeSpec) -> np.ndarray:
    """Matrix of a linear generator acting on row-major vectorized states.

    Column j is the generator applied to unit matrix j of dimension spec.dim.
    Raises ValueError when the generator returns another shape.
    """
    columns = []
    for unit in np.eye(spec.dim ** 2, dtype=complex).reshape(-1, spec.dim, spec.dim):
        out = generator(spec, unit)
        if np.shape(out) != unit.shape:
            raise ValueError(f"generator returned shape {np.shape(out)} for a state of "
                             f"shape {unit.shape}")
        columns.append(out.ravel())
    return np.stack(columns, axis=1)


def _rk4_powers(M: np.ndarray, dt: float, count: int) -> np.ndarray:
    """P^1 ... P^count for the RK4 step matrix P = sum_{k<=4} (dt M)^k / k!.

    Returns one C-contiguous (count n, n) array of M's dtype, n = M's size,
    whose rows j n .. (j + 1) n - 1 hold P^(j+1); reshaped to (count, n, n)
    it is the stack of powers.  Each doubling step is a few 2-D matrix products of at
    most _GEMM_MADDS // n^2 rows each.
    """
    n = M.shape[0]
    eye = P = np.eye(n, dtype=M.dtype)
    for k in (4, 3, 2, 1):  # Horner form of the degree-4 Taylor polynomial
        P = eye + (dt / k) * (M @ P)
    powers = np.empty((count * n, n), dtype=M.dtype)
    powers[:n] = P
    rows = _GEMM_MADDS // (n * n)
    m = n
    while m < len(powers):  # doubling: P^(j + m/n) = P^j P^(m/n)
        k = min(m, len(powers) - m)
        for lo in range(0, k, rows):
            hi = min(lo + rows, k)
            np.matmul(powers[lo:hi], powers[m - n:m], out=powers[m + lo:m + hi])
        m += k
    return powers


def _first_failure(ok: np.ndarray) -> int:
    """Index of the first False entry of ok, or len(ok) if every entry holds."""
    return len(ok) if ok.all() else int(ok.argmin())


def integrate_deterministic(generator, spec: SchemeSpec, config: TrajectoryConfig,
                            observer=None) -> PopulationTrace:
    """Fixed-step RK4 integration of a deterministic master equation.

    Parameters
    ----------
    generator : callable
        gen(spec, rho) -> drho_dt, linear in rho.
    spec, config : SchemeSpec, TrajectoryConfig
        Physical parameters and grid.  config.initial_state of None selects
        the excited system (ancilla in ground for four-level schemes).
    observer : callable, optional
        Called as observer(t, rho) at every decimated sample time (stride
        config.tau); useful for state-invariant audits.

    Returns
    -------
    PopulationTrace
        Excited-state population of the system at every step, t = 0 included.

    Raises ValueError when the generator does not keep Hermiticity (see
    coordinate_matrix).

    One RK4 step is a fixed real matrix P acting on x, and the run is taken
    in chunks of blocks of _BLOCK steps, all in float64.  Pass 1 carries
    each block's start state, S[b] = P^_BLOCK S[b - 1], unrepaired: P keeps
    the trace a Lindblad generator keeps, each state is divided by its own
    trace where it is read, and the loss of a generator that does not keep
    the trace builds up over the run.  Pass 2 reads every step's trace and
    P_e from one product of the chunk's block starts with the functionals tr
    and tr(P_e .) of each power of P, which read its first dim rows (the
    diagonal).  Trace collapse and P_e outside [0, 1] are audited on every
    step, positivity (by eigvalsh where a Gershgorin bound cannot certify it)
    at every sample time, where alone full states are formed, Hermitian by
    construction.  The first failure in step order raises IntegrationError
    (reduce dt).
    """
    check_step_size(spec, config)
    rho0 = _initial_state(spec, config)
    dim, n = spec.dim, spec.dim ** 2
    dt, n_steps, stride = config.dt, config.n_steps, config.sample_stride
    block = min(_BLOCK, n_steps)
    U, V = _COORDINATES[dim]
    M = coordinate_matrix(liouvillian_matrix(generator, spec))
    # a stack: OpenBLAS splits one 2-D product of a whole block over threads
    powers = _rk4_powers(M, dt, block).reshape(-1, n, n)
    # columns 2j, 2j + 1: tr and tr(P_e .) of P^(j+1), its first dim rows summed with
    # weights 1 and w; C-contiguous, so S @ reads is _rk4_powers's BLAS product
    w = (PROJ_EXCITED if dim == 2 else _PROJ_EXCITED_S).diagonal().real
    weights = np.array([np.ones(dim), w]).T
    reads = np.matmul(powers[:, :dim].transpose(2, 0, 1), weights).reshape(n, 2 * block)
    # blocks per chunk: S @ reads under _GEMM_MADDS, two rows or more (OpenBLAS threads gemv)
    chunk = max(2, min(-(-n_steps // block), _GEMM_MADDS // reads.size))
    S = np.zeros((chunk, n))  # the block starts of one chunk
    S[0] = (V @ rho0.ravel()).real

    pe = np.empty(n_steps + 1)
    pe[0] = rho0.diagonal().real @ w
    if observer is not None:
        observer(0.0, rho0.copy())

    for first in range(1, n_steps + 1, chunk * block):
        m = min(chunk * block, n_steps + 1 - first)  # steps first .. first + m - 1
        nb = -(-m // block)
        with np.errstate(over="ignore", invalid="ignore"):  # past a failure, states may overflow
            for b in range(first == 1, nb):  # pass 1; S[-1] ended the previous chunk
                np.matmul(powers[-1], S[b - 1], out=S[b])
            tr, num = (S[:max(nb, 2)] @ reads).reshape(-1, 2)[:m].T  # pass 2
            kept = _first_failure(np.abs(tr) >= 1e-12)
            p = pe[first:first + kept] = num[:kept] / tr[:kept]
        n_in = _first_failure((p >= -PE_TOLERANCE) & (p <= 1.0 + PE_TOLERANCE))
        for b in range(-(-n_in // block)):  # positivity at the sample times, block by block
            at = first + b * block  # the step of powers[0] @ S[b]
            sampled = slice(-at % stride, n_in - b * block, stride)
            samples = range(block)[sampled]  # offsets of the sampled steps from at
            if samples:
                xs = powers[sampled] @ S[b]
                xs /= tr[b * block:(b + 1) * block][sampled, None]
                rhos = (xs @ U.T).reshape(-1, dim, dim)
                # Gershgorin: every eigenvalue is at least min_i (2 rho_ii - sum_j |rho_ij|),
                # so only the states with a row below -1e-8 need eigvalsh
                lower = 2.0 * xs[:, :dim] - np.einsum("sij->si", np.abs(rhos))
                unsure = np.flatnonzero((lower < -1e-8).any(axis=1))
                min_eigs = np.linalg.eigvalsh(rhos[unsure])[:, 0] if unsure.size else np.empty(0)
                lost = np.flatnonzero(min_eigs < -1e-8)
                n_pos = unsure[lost[0]] if lost.size else len(samples)
                if observer is not None:
                    for j, rho in zip(samples[:n_pos], rhos):
                        observer((at + j) * dt, rho.copy())
                if n_pos < len(samples):
                    t = (at + samples[n_pos]) * dt
                    raise IntegrationError(f"state lost positivity at t={t:.4g} (min "
                                           f"eigenvalue {min_eigs[lost[0]]:.3e}); reduce dt")
        if n_in < kept:
            raise IntegrationError(f"population left [0, 1] at step {first + n_in} "
                                   f"(P_e={p[n_in]:.3e}); reduce dt")
        if kept < m:
            raise IntegrationError("state trace collapsed during integration")

    return PopulationTrace(dt, pe)
