import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlift.operators import (
    IDENTITY,
    PROJ_EXCITED,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    adjoint_dissipator,
    check_density,
    dissipator,
    excited_state,
    project_physical,
    tensor,
)

from conftest import hermitize, partial_trace_ancilla, random_density, random_matrix

ATOL = 1e-12


class TestPauliAlgebra:
    def test_ladder_products(self):
        np.testing.assert_allclose(SIGMA_PLUS @ SIGMA_MINUS, PROJ_EXCITED, atol=ATOL)
        np.testing.assert_allclose(
            SIGMA_MINUS @ SIGMA_PLUS, IDENTITY - PROJ_EXCITED, atol=ATOL
        )

    def test_commutator_xy(self):
        np.testing.assert_allclose(
            SIGMA_X @ SIGMA_Y - SIGMA_Y @ SIGMA_X, 2j * SIGMA_Z, atol=ATOL
        )

    def test_lowering_from_xy(self):
        np.testing.assert_allclose(0.5 * (SIGMA_X - 1j * SIGMA_Y), SIGMA_MINUS, atol=ATOL)

    def test_sigma_y_from_ladder(self):
        np.testing.assert_allclose(1j * (SIGMA_MINUS - SIGMA_PLUS), SIGMA_Y, atol=ATOL)

    def test_basis_ordering_is_excited_first(self):
        # sigma_z |e> = +|e> pins the (|e>, |g>) convention
        e = np.array([1.0, 0.0])
        np.testing.assert_allclose(SIGMA_Z @ e, e, atol=ATOL)
        np.testing.assert_allclose(SIGMA_MINUS @ e, np.array([0.0, 1.0]), atol=ATOL)


class TestTensor:
    def test_system_factor_first(self):
        # excited system projector acts on the first two joint basis states
        joint = tensor(PROJ_EXCITED, IDENTITY)
        np.testing.assert_allclose(np.diag(joint), [1, 1, 0, 0], atol=ATOL)

    def test_matches_kron(self, rng):
        a, b = random_matrix(rng, 2), random_matrix(rng, 2)
        np.testing.assert_allclose(tensor(a, b), np.kron(a, b), atol=ATOL)


class TestDissipator:
    def test_amplitude_damping_of_excited(self):
        out = dissipator(SIGMA_MINUS, PROJ_EXCITED)
        expected = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
        np.testing.assert_allclose(out, expected, atol=ATOL)

    def test_coherence_decays_at_half_rate(self):
        coh = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        np.testing.assert_allclose(dissipator(SIGMA_MINUS, coh), -0.5 * coh, atol=ATOL)

    def test_traceless_on_random_input(self, rng):
        for dim in (2, 4):
            for _ in range(20):
                out = dissipator(random_matrix(rng, dim), random_density(rng, dim))
                assert abs(np.trace(out)) < ATOL

    def test_preserves_hermiticity(self, rng):
        out = dissipator(random_matrix(rng, 2), random_density(rng, 2))
        np.testing.assert_allclose(out, out.conj().T, atol=ATOL)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            dissipator(SIGMA_MINUS, np.eye(4) / 4)

    def test_stack_matches_per_state(self, rng):
        for dim in (2, 4):
            L = random_matrix(rng, dim)
            rhos = np.array([random_matrix(rng, dim) for _ in range(5)])
            out = dissipator(L, rhos)
            assert out.shape == rhos.shape
            for rho, got in zip(rhos, out):
                assert np.array_equal(got, dissipator(L, rho))
        with pytest.raises(ValueError, match="mismatch"):
            dissipator(SIGMA_MINUS, np.zeros((3, 4, 4)))


class TestAdjointDissipator:
    def test_duality_on_random_triples(self, rng):
        # tr(A D[L] rho) == tr(rho D+[L] A) for arbitrary A, L, rho
        for _ in range(100):
            dim = 2 if rng.random() < 0.5 else 4
            L = random_matrix(rng, dim)
            A = random_matrix(rng, dim)
            rho = random_matrix(rng, dim)
            lhs = np.trace(A @ dissipator(L, rho))
            rhs = np.trace(rho @ adjoint_dissipator(L, A))
            assert abs(lhs - rhs) <= ATOL * max(1.0, abs(lhs))

    def test_sigma_z_under_damping(self):
        # D+[sigma_-] sigma_z = -(I + sigma_z), the Heisenberg decay of inversion
        out = adjoint_dissipator(SIGMA_MINUS, SIGMA_Z)
        np.testing.assert_allclose(out, -(IDENTITY + SIGMA_Z), atol=ATOL)

    def test_identity_is_fixed_point(self, rng):
        # unital direction: D+[L] I = 0 for any L
        out = adjoint_dissipator(random_matrix(rng, 2), IDENTITY)
        np.testing.assert_allclose(out, np.zeros((2, 2)), atol=ATOL)


class TestPartialTrace:
    def test_product_state_reduces_to_system_factor(self, rng):
        rho_s = random_density(rng, 2)
        rho_a = random_density(rng, 2)
        np.testing.assert_allclose(
            partial_trace_ancilla(tensor(rho_s, rho_a)), rho_s, atol=ATOL
        )

    def test_entangled_state_reduces_to_mixture(self):
        ket = np.zeros(4, dtype=complex)
        ket[1] = ket[2] = 1.0 / np.sqrt(2.0)  # (|eg> + |ge>) / sqrt(2)
        reduced = partial_trace_ancilla(np.outer(ket, ket.conj()))
        np.testing.assert_allclose(reduced, IDENTITY / 2.0, atol=ATOL)

    def test_preserves_trace(self, rng):
        rho = random_density(rng, 4)
        assert abs(np.trace(partial_trace_ancilla(rho)) - 1.0) < ATOL

    def test_wrong_dimension_raises(self):
        with pytest.raises(ValueError, match="4x4"):
            partial_trace_ancilla(np.eye(2))


class TestStateRepair:
    def test_projection_clips_negative_eigenvalue(self):
        rho = np.diag([1.1, -0.1]).astype(complex)
        fixed = project_physical(rho)
        vals = np.linalg.eigvalsh(fixed)
        assert vals[0] >= 0.0
        assert abs(np.trace(fixed) - 1.0) < ATOL

    def test_projection_keeps_valid_state(self, rng):
        rho = random_density(rng, 2)
        np.testing.assert_allclose(project_physical(rho), rho, atol=ATOL)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=8, max_size=8))
    def test_projection_output_always_physical(self, entries):
        raw = np.array(entries[:4]).reshape(2, 2) + 1j * np.array(entries[4:]).reshape(2, 2)
        rho = hermitize(raw) + 0.5 * np.eye(2)
        if np.trace(rho).real < 0.1:  # keep a positive part to project onto
            return
        fixed = project_physical(rho)
        check_density(fixed, atol=1e-10)


class TestCheckDensity:
    def test_accepts_valid_state(self, rng):
        check_density(random_density(rng, 4))

    def test_rejects_non_hermitian(self):
        rho = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            check_density(rho)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            check_density(np.eye(2, dtype=complex))

    def test_rejects_negative_state(self):
        with pytest.raises(ValueError, match="positive"):
            check_density(np.diag([1.2, -0.2]).astype(complex))


class TestExcitedState:
    def test_two_level(self):
        np.testing.assert_allclose(excited_state(2), PROJ_EXCITED, atol=ATOL)

    def test_four_level_has_ancilla_in_ground(self):
        rho = excited_state(4)
        np.testing.assert_allclose(np.diag(rho), [0, 1, 0, 0], atol=ATOL)
        np.testing.assert_allclose(partial_trace_ancilla(rho), PROJ_EXCITED, atol=ATOL)

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            excited_state(3)
