"""Qubit operator algebra: Pauli matrices, Lindblad terms, and state checks.

Conventions, fixed once for the whole package:

* single-qubit basis order is (|e>, |g>), so sigma_z = diag(+1, -1) and the
  lowering operator sigma_- = |g><e| has its 1 below the diagonal;
* two-qubit (system x ancilla) basis order is (|ee>, |eg>, |ge>, |gg>), with
  the system factor on the left of every tensor product;
* hbar = 1, times in microseconds, rates in inverse microseconds.
"""

import numpy as np

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
PROJ_EXCITED = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)

# Tolerance to which evolved states are held.
STATE_ATOL = 1e-10


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the system factor first: a acts on the system."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def _check_square(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    return m


def dissipator(L: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Lindblad dissipator D[L] rho = L rho L+ - (L+L rho + rho L+L) / 2."""
    L = _check_square(L, "L")
    rho = _check_square(rho, "rho")
    if L.shape != rho.shape:
        raise ValueError(f"dimension mismatch: L is {L.shape}, rho is {rho.shape}")
    Ld = L.conj().T
    LdL = Ld @ L
    return L @ rho @ Ld - 0.5 * (LdL @ rho + rho @ LdL)


def adjoint_dissipator(L: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Heisenberg-picture dissipator D+[L] A = L+ A L - (L+L A + A L+L) / 2.

    Dual to :func:`dissipator` under the trace pairing:
    tr(A D[L] rho) == tr(rho D+[L] A) for all A, L, rho.
    """
    L = _check_square(L, "L")
    A = _check_square(A, "A")
    if L.shape != A.shape:
        raise ValueError(f"dimension mismatch: L is {L.shape}, A is {A.shape}")
    Ld = L.conj().T
    LdL = Ld @ L
    return Ld @ A @ L - 0.5 * (LdL @ A + A @ LdL)


def partial_trace_ancilla(rho: np.ndarray) -> np.ndarray:
    """Reduce a 4x4 system (x) ancilla state to the 2x2 system state."""
    rho = _check_square(rho, "rho")
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 joint state, got shape {rho.shape}")
    return np.einsum("iaja->ij", rho.reshape(2, 2, 2, 2))


def hermitize(rho: np.ndarray) -> np.ndarray:
    """Symmetrize: (rho + rho+) / 2, state by state on a stack of states."""
    return 0.5 * (rho + rho.conj().swapaxes(-1, -2))


def repair_density(rho: np.ndarray) -> np.ndarray:
    """Cheap state repair: hermitize, then renormalize the trace to 1.

    integrate_deterministic applies it to the state it carries from one block
    of steps into the next.  It does not touch the spectrum; see
    :func:`project_physical` for a positivity fix.
    """
    rho = hermitize(np.asarray(rho, dtype=complex))
    tr = np.trace(rho).real
    if abs(tr) < 1e-12:
        raise ValueError("state trace collapsed to zero; cannot renormalize")
    return rho / tr


def project_physical(rho: np.ndarray) -> np.ndarray:
    """Project onto the physical set: hermitize, clip negative eigenvalues,
    renormalize.  For a 2x2 state with Bloch vector r this is
    r <- r / max(1, |r|)."""
    rho = hermitize(np.asarray(rho, dtype=complex))
    vals, vecs = np.linalg.eigh(rho)
    if vals[0] >= 0.0:
        tr = vals.sum()
        if tr < 1e-12:
            raise ValueError("state trace collapsed to zero; cannot renormalize")
        return rho / tr
    vals = np.clip(vals, 0.0, None)
    tr = vals.sum()
    if tr < 1e-12:
        raise ValueError("state became negative with no positive part left")
    rho = (vecs * vals) @ vecs.conj().T
    return rho / tr


def check_density(rho: np.ndarray, atol: float = STATE_ATOL) -> None:
    """Raise ValueError unless rho is Hermitian, unit-trace, and positive
    semidefinite, all within atol."""
    rho = _check_square(rho, "rho")
    if not np.all(np.isfinite(rho)):
        raise ValueError("state contains non-finite entries")
    herm_defect = np.max(np.abs(rho - rho.conj().T))
    if herm_defect > atol:
        raise ValueError(f"state not Hermitian: defect {herm_defect:.3e} > {atol:.1e}")
    trace_defect = abs(np.trace(rho) - 1.0)
    if trace_defect > atol:
        raise ValueError(f"state trace off unity by {trace_defect:.3e} > {atol:.1e}")
    min_eig = float(np.linalg.eigvalsh(hermitize(rho))[0])
    if min_eig < -atol:
        raise ValueError(f"state not positive: min eigenvalue {min_eig:.3e} < -{atol:.1e}")


def excited_state(dim: int) -> np.ndarray:
    """Initial state used throughout: system excited, ancilla (if any) in ground.

    dim=2 gives |e><e|; dim=4 gives |eg><eg|.
    """
    if dim == 2:
        return PROJ_EXCITED.copy()
    if dim == 4:
        ket = np.zeros(4, dtype=complex)
        ket[1] = 1.0  # |e>_S |g>_A in the (ee, eg, ge, gg) ordering
        return np.outer(ket, ket.conj())
    raise ValueError(f"dim must be 2 or 4, got {dim}")
