import math

import numpy as np
import pytest
from scipy.linalg import expm

from qlift import dynamics
from qlift.dynamics import (
    IntegrationError,
    SchemeKind,
    SchemeSpec,
    TrajectoryConfig,
    ancilla_decay_generator,
    ancilla_feedback_generator,
    check_step_size,
    feedback_terms,
    integrate_deterministic,
    lindblad_rhs,
    liouvillian_matrix,
    no_feedback_generator,
    wm_generator,
)
from qlift.fitting import fit_exponential, fit_exponential_offset
from qlift.operators import (
    IDENTITY,
    PROJ_EXCITED,
    SIGMA_MINUS,
    SIGMA_Y,
    SIGMA_Z,
    STATE_ATOL,
    check_density,
    dissipator,
    excited_state,
    tensor,
)

from conftest import hermitize, partial_trace_ancilla, random_density, random_matrix

GAMMA = 0.02
# blocks per chunk of integrate_deterministic at dim 4: its product of the
# block starts with the (16, 2 _BLOCK) functionals stays under _GEMM_MADDS
CHUNK_DIM4 = dynamics._GEMM_MADDS // (16 * 2 * dynamics._BLOCK)


def reference_integrate(generator, spec, config, observer=None):
    """Per-step RK4 loop with per-step repair and audits, the reference for
    the block propagator of integrate_deterministic.  Returns P_e as audited."""
    check_step_size(spec, config)
    rho0 = config.initial_state
    if rho0 is None:
        rho0 = excited_state(spec.dim)
    dim = rho0.shape[0]
    M = liouvillian_matrix(generator, spec)
    w = (PROJ_EXCITED if dim == 2 else tensor(PROJ_EXCITED, IDENTITY)).T.ravel()
    dt, n_steps, stride = config.dt, config.n_steps, config.sample_stride

    v = rho0.ravel().astype(complex)
    pe = np.empty(n_steps + 1)
    pe[0] = (w @ v).real
    if observer is not None:
        observer(0.0, rho0.copy())
    for step in range(1, n_steps + 1):
        k1 = M @ v
        k2 = M @ (v + 0.5 * dt * k1)
        k3 = M @ (v + 0.5 * dt * k2)
        k4 = M @ (v + dt * k3)
        v = v + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)

        rho = hermitize(v.reshape(dim, dim))
        tr = np.trace(rho).real
        if abs(tr) < 1e-12:
            raise IntegrationError("state trace collapsed during integration")
        rho = rho / tr
        v = rho.ravel()

        p = (w @ v).real
        if p < -1e-9 or p > 1.0 + 1e-9:
            raise IntegrationError(
                f"population left [0, 1] at step {step} (P_e={p:.3e}); reduce dt"
            )
        pe[step] = p

        if step % stride == 0:
            min_eig = float(np.linalg.eigvalsh(rho)[0])
            if min_eig < -1e-8:
                raise IntegrationError(
                    f"state lost positivity at t={step * dt:.4g} "
                    f"(min eigenvalue {min_eig:.3e}); reduce dt"
                )
            if observer is not None:
                observer(step * dt, rho.copy())
    return pe


def integration_error(integrate, generator, spec, config):
    """Message of the IntegrationError the integration raises, and the
    observer times seen before it."""
    times = []
    with pytest.raises(IntegrationError) as exc:
        integrate(generator, spec, config, observer=lambda t, rho: times.append(t))
    return str(exc.value), times


def wm_spec(eta=1.0, lam=None, gamma=GAMMA, **kw):
    if lam is None:
        lam = 0.5 * math.sqrt(eta * gamma)
    return SchemeSpec(SchemeKind.WISEMAN_MILBURN, gamma=gamma, eta=eta,
                      lambda_gain=lam, **kw)


def real_matrix(L, dim):
    """L in the Hermitian coordinates integrate_deterministic works in."""
    U, V = dynamics._COORDINATES[dim]
    return np.ascontiguousarray((V @ L @ U).real)


ANCILLA_FEEDBACK = SchemeSpec(SchemeKind.ANCILLA_COHERENT, gamma=GAMMA, eta=0.7,
                              lambda_gain=0.05, g=0.3, kappa=2.0)
SCHEME_GENERATORS = [
    (no_feedback_generator, SchemeSpec(SchemeKind.NO_FEEDBACK, gamma=GAMMA)),
    (wm_generator, wm_spec(eta=0.6, lam=0.03, phi_lo=0.4)),
    (ancilla_decay_generator,
     SchemeSpec(SchemeKind.ANCILLA_COHERENT, gamma=GAMMA, g=0.3, kappa=2.0)),
    (ancilla_feedback_generator, ANCILLA_FEEDBACK),
]


class TestSchemeSpec:
    def test_dim(self):
        assert SchemeSpec(SchemeKind.NO_FEEDBACK, gamma=GAMMA).dim == 2
        assert SchemeSpec(SchemeKind.ANCILLA_COHERENT, gamma=GAMMA, g=1.0,
                          kappa=10.0).dim == 4

    def test_fastest_rate_picks_dominant_scale(self):
        spec = SchemeSpec(SchemeKind.ANCILLA_COHERENT, gamma=GAMMA, g=0.92, kappa=92.0)
        assert spec.fastest_rate == 92.0
        assert wm_spec(lam=3.0).fastest_rate == 9.0  # lambda^2 dominates
        # no feedback applies no gain, whatever lambda_gain says
        assert SchemeSpec(SchemeKind.NO_FEEDBACK, gamma=GAMMA, lambda_gain=1.0).fastest_rate == GAMMA

    @pytest.mark.parametrize("kw", [
        dict(gamma=0.0), dict(gamma=-1.0), dict(eta=0.0), dict(eta=1.2),
        dict(lambda_gain=-0.1), dict(g=-1.0), dict(kappa=-1.0),
        dict(phi_lo=float("inf")), dict(phi_lo=float("nan")),
    ])
    def test_validation(self, kw):
        base = dict(kind=SchemeKind.WISEMAN_MILBURN, gamma=GAMMA)
        base.update(kw)
        with pytest.raises(ValueError):
            SchemeSpec(**base)


class TestTrajectoryConfig:
    def test_derived_quantities(self):
        cfg = TrajectoryConfig(dt=0.1, t_final=10.0, tau=0.5)
        assert cfg.n_steps == 100
        assert cfg.sample_stride == 5

    def test_tau_defaults_to_dt(self):
        cfg = TrajectoryConfig(dt=0.1, t_final=1.0)
        assert cfg.tau == 0.1 and cfg.sample_stride == 1

    @pytest.mark.parametrize("kw", [
        dict(dt=0.0, t_final=1.0), dict(dt=0.1, t_final=0.05),
        dict(dt=0.1, t_final=1.0, tau=0.25), dict(dt=0.1, t_final=1.03),
        dict(dt=0.1, t_final=1.0, seed=-1),
        dict(dt=0.1, t_final=1.0, n_trajectories=0),
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            TrajectoryConfig(**kw)

    @pytest.mark.parametrize("name", ["seed", "n_trajectories"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_count_is_named(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer >= ., got {value}"):
            TrajectoryConfig(dt=0.1, t_final=1.0, **{name: value})

    def test_initial_state_must_be_density(self):
        with pytest.raises(ValueError):
            TrajectoryConfig(dt=0.1, t_final=1.0, initial_state=np.eye(2))

    def test_step_size_guard(self):
        spec = SchemeSpec(SchemeKind.NO_FEEDBACK, gamma=GAMMA)
        check_step_size(spec, TrajectoryConfig(dt=0.5, t_final=10.0))  # 0.01/0.02
        with pytest.raises(ValueError, match="too large"):
            check_step_size(spec, TrajectoryConfig(dt=0.6, t_final=1.2))


class TestHamiltonian:
    # the pair's rotating-frame Hamiltonian is g times the exchange operator
    def test_four_level_structure(self):
        H = 3.0 * dynamics._EXCHANGE
        np.testing.assert_allclose(H, H.conj().T, atol=1e-12)
        np.testing.assert_allclose(np.diag(H), np.zeros(4), atol=1e-12)
        # the exchange coupling connects |eg> and |ge> only
        assert H[1, 2] == pytest.approx(3.0)
        assert H[2, 1] == pytest.approx(3.0)
        off = H - np.diag(np.diag(H))
        off[1, 2] = off[2, 1] = 0.0
        np.testing.assert_allclose(off, np.zeros((4, 4)), atol=1e-12)

    def test_rotating_frame_default_is_coupling_only(self):
        H = 2.0 * dynamics._EXCHANGE
        sp = SIGMA_MINUS.conj().T
        expected = 2.0 * (tensor(sp, SIGMA_MINUS) + tensor(SIGMA_MINUS, sp))
        np.testing.assert_allclose(H, expected, atol=1e-12)


class TestGenerators:
    def test_lindblad_rhs_against_dissipator(self, rng):
        H = np.asarray(random_matrix(rng, 2))
        H = 0.5 * (H + H.conj().T)
        L1, L2 = random_matrix(rng, 2), random_matrix(rng, 2)
        rho = random_density(rng, 2)
        out = lindblad_rhs(H, [(0.3, L1), (1.7, L2)], rho)
        expected = -1j * (H @ rho - rho @ H)
        expected += 0.3 * dissipator(L1, rho) + 1.7 * dissipator(L2, rho)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_lindblad_rhs_rejects_negative_rate(self, rng):
        with pytest.raises(ValueError):
            lindblad_rhs(np.zeros((2, 2)), [(-0.1, SIGMA_MINUS)], random_density(rng, 2))

    def test_lindblad_rhs_skips_zero_rate_channel(self, rng):
        H = np.asarray(random_matrix(rng, 2))
        H = 0.5 * (H + H.conj().T)
        L1, L2 = random_matrix(rng, 2), random_matrix(rng, 2)
        rho = random_density(rng, 2)
        want = lindblad_rhs(H, [(0.3, L1)], rho)
        assert np.array_equal(lindblad_rhs(H, [(0.3, L1), (0.0, L2)], rho), want)
        assert np.array_equal(lindblad_rhs(H, [(0.0, L2), (0.3, L1)], rho), want)

    def test_lindblad_rhs_rejects_negative_rate_beside_zero_rate(self, rng):
        channels = [(0.0, SIGMA_MINUS), (-1e-300, SIGMA_MINUS)]
        with pytest.raises(ValueError, match="rate"):
            lindblad_rhs(np.zeros((2, 2)), channels, random_density(rng, 2))

    def test_wm_zero_gain_is_bare_decay(self, rng):
        spec = wm_spec(eta=0.8, lam=0.0)
        rho = random_density(rng, 2)
        np.testing.assert_allclose(
            wm_generator(spec, rho),
            no_feedback_generator(spec, rho),
            atol=1e-12,
        )

    def test_wm_ideal_detection_is_single_dissipator(self, rng):
        # at eta = 1 the whole generator is D[sqrt(gamma) sigma_- + i lam sigma_y]
        spec = wm_spec(eta=1.0, lam=0.05)
        rho = random_density(rng, 2)
        L = math.sqrt(GAMMA) * SIGMA_MINUS + 1j * 0.05 * SIGMA_Y
        np.testing.assert_allclose(wm_generator(spec, rho), dissipator(L, rho),
                                   atol=1e-12)

    def test_wm_inversion_dynamics_closed_form(self, rng):
        # d<sigma_z>/dt = -Gamma(lam) <sigma_z> - (gamma - 2 sqrt(eta gamma) lam)
        for _ in range(25):
            eta = rng.uniform(0.1, 1.0)
            lam = rng.uniform(0.0, 0.2)
            gamma = rng.uniform(0.005, 0.1)
            spec = wm_spec(eta=eta, lam=lam, gamma=gamma)
            rho = random_density(rng, 2)
            lhs = np.trace(SIGMA_Z @ wm_generator(spec, rho)).real
            big_gamma = gamma - 2 * math.sqrt(eta * gamma) * lam + 2 * lam * lam
            rhs = -big_gamma * np.trace(SIGMA_Z @ rho).real
            rhs -= gamma - 2 * math.sqrt(eta * gamma) * lam
            assert lhs == pytest.approx(rhs, abs=1e-12)

    @pytest.mark.parametrize("phi", [0.0, math.pi / 2, math.pi],
                             ids=["phi0", "phi90", "phi180"])
    def test_wm_rate_follows_oscillator_phase(self, phi):
        # the phase rotates the measured quadrature against the fixed drive
        # -sigma_y: Gamma = gamma - 2 sqrt(eta gamma) lam cos(phi) + 2 lam^2,
        # 0.01, 0.03 and 0.05 per us here
        spec = wm_spec(eta=1.0, phi_lo=phi)
        cfg = TrajectoryConfig(dt=0.25, t_final=250.0)
        fit = fit_exponential_offset(integrate_deterministic(wm_generator, spec, cfg))
        lam = spec.lambda_gain
        want = GAMMA - 2.0 * math.sqrt(GAMMA) * lam * math.cos(phi) + 2.0 * lam * lam
        assert fit.gamma_eff == pytest.approx(want, rel=1e-6)

    def test_wm_preserves_trace_and_hermiticity(self, rng):
        spec = wm_spec(eta=0.6)
        out = wm_generator(spec, random_density(rng, 2))
        assert abs(np.trace(out)) < 1e-12
        np.testing.assert_allclose(out, out.conj().T, atol=1e-12)

    def test_feedback_equation_matches_wm(self, rng):
        # oracle: the feedback master equation in its usual form,
        # -i[H0 + (c+F + Fc)/2, rho] + D[c - i sqrt(eta) F] rho + (1 - eta) D[F] rho
        for eta in (1.0, 0.7):
            H0 = hermitize(random_matrix(rng, 2))
            c = random_matrix(rng, 2)
            F = hermitize(random_matrix(rng, 2))
            rho = random_density(rng, 2)
            H = H0 + 0.5 * (c.conj().T @ F + F @ c)
            want = -1j * (H @ rho - rho @ H) + dissipator(c - 1j * math.sqrt(eta) * F, rho)
            want += (1.0 - eta) * dissipator(F, rho)
            H_fb, channels = feedback_terms(c, F, eta)
            got = lindblad_rhs(H0 + H_fb, channels, rho)
            np.testing.assert_allclose(got, want, atol=1e-12)
        # specialized to the single-qubit pair
        spec = wm_spec(eta=0.7, lam=0.04)
        rho = random_density(rng, 2)
        terms = feedback_terms(math.sqrt(GAMMA) * SIGMA_MINUS, 0.04 * (-SIGMA_Y), 0.7)
        np.testing.assert_allclose(lindblad_rhs(*terms, rho), wm_generator(spec, rho),
                                   atol=1e-12)

    def test_ancilla_feedback_zero_gain(self, rng):
        # lam = 0 leaves the coupled pair with only the two decay channels
        spec = SchemeSpec(SchemeKind.ANCILLA_COHERENT, gamma=GAMMA, g=0.5,
                          kappa=3.0, lambda_gain=0.0)
        rho = random_density(rng, 4)
        sp = SIGMA_MINUS.conj().T
        H = 0.5 * (tensor(sp, SIGMA_MINUS) + tensor(SIGMA_MINUS, sp))
        expected = lindblad_rhs(H, [(GAMMA, tensor(SIGMA_MINUS, IDENTITY)),
                                    (3.0, tensor(IDENTITY, SIGMA_MINUS))], rho)
        np.testing.assert_allclose(ancilla_feedback_generator(spec, rho), expected,
                                   atol=1e-12)

    def test_ancilla_feedback_preserves_trace(self, rng):
        spec = SchemeSpec(SchemeKind.ANCILLA_COHERENT, gamma=GAMMA, g=0.5,
                          kappa=3.0, lambda_gain=0.08, eta=0.7)
        out = ancilla_feedback_generator(spec, random_density(rng, 4))
        assert abs(np.trace(out)) < 1e-12

    def test_ancilla_decay_matches_manual_sum(self, rng):
        spec = SchemeSpec(SchemeKind.ANCILLA_COHERENT, gamma=GAMMA, g=0.5, kappa=3.0)
        rho = random_density(rng, 4)
        sp = SIGMA_MINUS.conj().T
        H = 0.5 * (tensor(sp, SIGMA_MINUS) + tensor(SIGMA_MINUS, sp))
        expected = -1j * (H @ rho - rho @ H)
        expected += GAMMA * dissipator(tensor(SIGMA_MINUS, IDENTITY), rho)
        expected += 3.0 * dissipator(tensor(IDENTITY, SIGMA_MINUS), rho)
        np.testing.assert_allclose(ancilla_decay_generator(spec, rho), expected,
                                   atol=1e-12)

    @pytest.mark.parametrize("eta, lam, phi", [(0.7, 0.2, 0.3), (0.4, 1.5, -2.0)])
    def test_pair_monitors_the_qubit_operators(self, eta, lam, phi):
        # the pair's m and c act on the system and F on the ancilla, each
        # exactly the lone qubit's operator at the same parameters
        qubit = wm_spec(eta=eta, lam=lam, phi_lo=phi)
        pair = SchemeSpec(SchemeKind.ANCILLA_COHERENT, gamma=GAMMA, eta=eta,
                          lambda_gain=lam, g=0.3, kappa=2.0, phi_lo=phi)
        (m_q, c_q, F_q), (m, c, F) = dynamics.monitored_qubit(qubit), dynamics.monitored_qubit(pair)
        assert np.array_equal(m, tensor(m_q, IDENTITY))
        assert np.array_equal(c, tensor(c_q, IDENTITY))
        assert np.array_equal(F, tensor(IDENTITY, F_q))

    def test_pair_generator_forms_no_tensor_product(self, monkeypatch):
        want = liouvillian_matrix(ancilla_feedback_generator, ANCILLA_FEEDBACK)

        def no_tensor(a, b):
            raise AssertionError("tensor product formed per probe")

        monkeypatch.setattr(dynamics, "tensor", no_tensor)
        assert np.array_equal(liouvillian_matrix(ancilla_feedback_generator, ANCILLA_FEEDBACK),
                              want)

    def test_liouvillian_matrix_reproduces_generator(self, rng):
        spec = SchemeSpec(SchemeKind.ANCILLA_COHERENT, gamma=GAMMA, g=0.4, kappa=2.0)
        M = liouvillian_matrix(ancilla_decay_generator, spec)
        for _ in range(10):
            rho = random_density(rng, 4)
            np.testing.assert_allclose(
                (M @ rho.ravel()).reshape(4, 4),
                ancilla_decay_generator(spec, rho),
                atol=1e-12,
            )

    @pytest.mark.parametrize("generator, spec", SCHEME_GENERATORS)
    def test_generators_accept_a_stack_of_states(self, generator, spec, rng):
        rhos = np.array([random_density(rng, spec.dim) for _ in range(5)])
        out = generator(spec, rhos)
        assert out.shape == rhos.shape
        for rho, got in zip(rhos, out):
            assert np.array_equal(got, generator(spec, rho))

    def test_liouvillian_matrix_rejects_wrong_shape(self):
        spec = SchemeSpec(SchemeKind.NO_FEEDBACK, gamma=GAMMA)
        for broken in (lambda s, rho: no_feedback_generator(s, rho)[0],
                       lambda s, rho: no_feedback_generator(s, rho).reshape(-1, 4)):
            with pytest.raises(ValueError, match="shape"):
                liouvillian_matrix(broken, spec)
            with pytest.raises(ValueError, match="shape"):
                integrate_deterministic(broken, spec, TrajectoryConfig(dt=0.1, t_final=1.0))

    @pytest.mark.parametrize("dim", [2, 4])
    def test_hermitian_coordinates_invert_exactly(self, dim, rng):
        U, V = dynamics._COORDINATES[dim]
        assert np.array_equal(V @ U, np.eye(dim * dim))
        assert not (U.flags.writeable or V.flags.writeable)
        rho = random_density(rng, dim)
        x = V @ rho.ravel()
        np.testing.assert_allclose(x.imag, 0.0, atol=1e-16)
        assert np.array_equal(x[:dim].real, rho.diagonal().real)
        np.testing.assert_allclose(U @ x.real, rho.ravel(), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("generator, spec", SCHEME_GENERATORS)
    def test_liouvillian_is_real_in_hermitian_coordinates(self, generator, spec):
        U, V = dynamics._COORDINATES[spec.dim]
        L = liouvillian_matrix(generator, spec)
        assert np.abs((V @ L @ U).imag).max() <= 1e-16 * np.abs(L).max()


class TestIntegrateDeterministic:
    def test_matches_exponential_decay(self):
        spec = SchemeSpec(SchemeKind.NO_FEEDBACK, gamma=GAMMA)
        cfg = TrajectoryConfig(dt=0.05, t_final=250.0)
        trace = integrate_deterministic(no_feedback_generator, spec, cfg)
        exact = np.exp(-GAMMA * trace.times)
        np.testing.assert_allclose(trace.pe, exact, rtol=1e-9)

    def test_matches_matrix_exponential_for_wm(self, rng):
        spec = wm_spec(eta=0.6, lam=0.03)
        cfg = TrajectoryConfig(dt=0.2, t_final=40.0, tau=4.0)
        M = liouvillian_matrix(wm_generator, spec)
        seen = {}
        observer = lambda t, rho: seen.__setitem__(round(t, 9), rho)
        trace = integrate_deterministic(wm_generator, spec, cfg, observer=observer)
        rho0 = excited_state(2)
        for t, rho in seen.items():
            expected = (expm(M * t) @ rho0.ravel()).reshape(2, 2)
            np.testing.assert_allclose(rho, expected, atol=1e-8)
        assert len(seen) == 11  # t = 0, 4, ..., 40

    def test_matches_matrix_exponential_for_ancilla(self):
        spec = SchemeSpec(SchemeKind.ANCILLA_COHERENT, gamma=GAMMA, g=0.3, kappa=2.0)
        cfg = TrajectoryConfig(dt=0.004, t_final=8.0)
        trace = integrate_deterministic(ancilla_decay_generator, spec, cfg)
        M = liouvillian_matrix(ancilla_decay_generator, spec)
        proj = tensor(PROJ_EXCITED, IDENTITY)
        for t_idx in (0, 500, 1000, 2000):
            rho_t = (expm(M * trace.times[t_idx]) @ excited_state(4).ravel()).reshape(4, 4)
            assert trace.pe[t_idx] == pytest.approx(
                np.trace(proj @ rho_t).real, abs=1e-7
            )

    def test_population_via_partial_trace_route(self, rng):
        # the system population read from the joint state equals the reduced one
        proj = tensor(PROJ_EXCITED, IDENTITY)
        for _ in range(20):
            rho = random_density(rng, 4)
            joint = np.trace(proj @ rho).real
            reduced = np.trace(PROJ_EXCITED @ partial_trace_ancilla(rho)).real
            assert joint == pytest.approx(reduced, abs=1e-12)

    def test_wm_fit_recovers_closed_rate(self):
        spec = wm_spec(eta=0.25)
        cfg = TrajectoryConfig(dt=0.25, t_final=250.0)
        trace = integrate_deterministic(wm_generator, spec, cfg)
        fit = fit_exponential_offset(trace)
        assert fit.gamma_eff == pytest.approx(GAMMA * (1 - 0.25 / 2), rel=1e-6)

    def test_wm_steady_state_population(self):
        # the feedback holds a steady excited population lam^2 / Gamma(lam)
        spec = wm_spec(eta=1.0)
        cfg = TrajectoryConfig(dt=0.25, t_final=1500.0)
        trace = integrate_deterministic(wm_generator, spec, cfg)
        lam = spec.lambda_gain
        expected = lam ** 2 / (GAMMA * 0.5)
        assert trace.pe[-1] == pytest.approx(expected, rel=1e-4)

    def test_ancilla_rate_matches_single_excitation_model(self):
        # oracle: amplitudes in the one-excitation sector evolve under
        # [[-gamma/2, -i g], [-i g, -kappa/2]]; the population decays at twice
        # the slow eigenvalue's magnitude
        gamma, R, C = GAMMA, 100.0, 1.84
        g = C * gamma * R / 4.0
        spec = SchemeSpec(SchemeKind.ANCILLA_COHERENT, gamma=gamma, g=g, kappa=R * g)
        A = np.array([[-gamma / 2, -1j * g], [-1j * g, -R * g / 2]])
        slow = 2.0 * min(-np.linalg.eigvals(A).real)
        dt = 35.0 / math.ceil(35.0 / (0.01 / spec.fastest_rate))
        cfg = TrajectoryConfig(dt=dt, t_final=35.0, tau=500 * dt)
        trace = integrate_deterministic(ancilla_decay_generator, spec, cfg)
        fit = fit_exponential(trace)
        assert fit.gamma_eff == pytest.approx(slow, rel=1e-3)

    def test_ancilla_feedback_lifetime_at_the_defaults(self):
        # The paper's headline scheme: feedback onto the ancilla, which
        # decays at kappa, at gamma 0.02, g 0.92, kappa 92, eta 1, fitted
        # over a 100 us horizon (the fit depends on it: at 40 us, lambda = 3
        # gives 22.5 us).  Measured T1: 17.60 us at lambda 0, 21.12 at 1 and
        # 34.02 at 3, far below the paper's 142 us.  Feedback can drive the
        # pair, so the passive model's excitation-number bound is not assumed.
        dt = 100.0 / 920_000
        cfg = TrajectoryConfig(dt=dt, t_final=100.0, tau=1.0)

        def spec(lam):
            return SchemeSpec(SchemeKind.ANCILLA_COHERENT, gamma=GAMMA, g=0.92,
                              kappa=92.0, eta=1.0, lambda_gain=lam)

        t1 = [fit_exponential(integrate_deterministic(ancilla_feedback_generator, spec(lam),
                                                      cfg)).t1
              for lam in (0.0, 1.0, 3.0)]
        passive = fit_exponential(integrate_deterministic(ancilla_decay_generator, spec(0.0), cfg))
        assert t1[0] == pytest.approx(passive.t1, rel=1e-9)
        assert t1[0] < t1[1] < t1[2] < 142.0
        assert t1 == pytest.approx([17.5986, 21.1156, 34.0215], rel=1e-4)

    def test_observer_sampling_grid(self):
        spec = SchemeSpec(SchemeKind.NO_FEEDBACK, gamma=GAMMA)
        cfg = TrajectoryConfig(dt=0.1, t_final=2.0, tau=0.5)
        times = []
        integrate_deterministic(no_feedback_generator, spec, cfg,
                                observer=lambda t, rho: times.append(t))
        np.testing.assert_allclose(times, [0.0, 0.5, 1.0, 1.5, 2.0], atol=1e-12)

    def test_observer_states_are_valid(self):
        spec = wm_spec(eta=0.5)
        cfg = TrajectoryConfig(dt=0.2, t_final=50.0, tau=5.0)
        integrate_deterministic(wm_generator, spec, cfg,
                                observer=lambda t, rho: check_density(rho))

    @pytest.mark.parametrize("generator, spec, dt", [
        (wm_generator, wm_spec(eta=0.6, lam=0.03, phi_lo=0.4), 0.2),
        (ancilla_feedback_generator, ANCILLA_FEEDBACK, 0.004),
    ])
    def test_observer_states_are_exactly_hermitian(self, generator, spec, dt, rng):
        # states are formed from real coordinates, so no repair is needed
        rho0 = hermitize(random_density(rng, spec.dim))
        cfg = TrajectoryConfig(dt=dt, t_final=1300 * dt, tau=9 * dt, initial_state=rho0)
        rhos = []
        integrate_deterministic(generator, spec, cfg, observer=lambda t, rho: rhos.append(rho))
        assert len(rhos) == 1300 // 9 + 1
        assert all(np.array_equal(rho, rho.conj().T) for rho in rhos)
        assert min(np.abs(rho.imag).max() for rho in rhos) > 1e-3

    def test_rejects_generator_that_breaks_hermiticity(self):
        spec = SchemeSpec(SchemeKind.NO_FEEDBACK, gamma=GAMMA)
        with pytest.raises(ValueError, match="Hermiticity"):
            integrate_deterministic(lambda s, rho: SIGMA_MINUS @ rho, spec,
                                    TrajectoryConfig(dt=0.1, t_final=1.0))

    def test_rejects_oversized_step(self):
        spec = SchemeSpec(SchemeKind.NO_FEEDBACK, gamma=GAMMA)
        with pytest.raises(ValueError, match="too large"):
            integrate_deterministic(no_feedback_generator, spec,
                                    TrajectoryConfig(dt=1.0, t_final=10.0))

    def test_rejects_initial_state_of_wrong_dimension(self):
        spec = SchemeSpec(SchemeKind.ANCILLA_COHERENT, gamma=GAMMA, g=0.1, kappa=1.0)
        cfg = TrajectoryConfig(dt=1e-3, t_final=0.1, initial_state=excited_state(2))
        with pytest.raises(ValueError, match=r"\(2, 2\).*\(4, 4\)"):
            integrate_deterministic(ancilla_decay_generator, spec, cfg)

    def test_detects_broken_generator(self):
        # time-reversed damping drives the ground population negative; the
        # invariant audit must trip instead of silently producing garbage
        spec = SchemeSpec(SchemeKind.NO_FEEDBACK, gamma=GAMMA)
        cfg = TrajectoryConfig(dt=0.5, t_final=500.0)
        backwards = lambda s, rho: -no_feedback_generator(s, rho)
        with pytest.raises(IntegrationError):
            integrate_deterministic(backwards, spec, cfg)
        # the same step as the per-step loop: at once from |e><e|, and in the
        # second block from P_e = 0.002 (P_e grows as 0.002 e^(gamma t))
        for rho0 in (None, np.diag([0.002, 0.998]).astype(complex)):
            cfg = TrajectoryConfig(dt=0.5, t_final=500.0, tau=2.5, initial_state=rho0)
            got = integration_error(integrate_deterministic, backwards, spec, cfg)
            assert got == integration_error(reference_integrate, backwards, spec, cfg)
        assert "at step 622 " in got[0] and cfg.n_steps > 622 > dynamics._BLOCK

    def test_detects_trace_leak(self):
        # a uniform loss -0.05 rho shrinks the trace as e^(-0.05 t); nothing
        # renormalizes the carried state, so it drops below 1e-12 near t = 553
        spec = SchemeSpec(SchemeKind.NO_FEEDBACK, gamma=GAMMA)
        cfg = TrajectoryConfig(dt=0.5, t_final=2000.0)
        leaking = lambda s, rho: no_feedback_generator(s, rho) - 0.05 * rho
        with pytest.raises(IntegrationError, match="state trace collapsed"):
            integrate_deterministic(leaking, spec, cfg)

    def test_population_is_returned_as_audited(self):
        # a slow anti-decay lifts P_e above 1 by e^(1e-9 t) - 1, inside the
        # audit's PE_TOLERANCE: it is returned, not clipped to 1
        spec = SchemeSpec(SchemeKind.NO_FEEDBACK, gamma=GAMMA)
        cfg = TrajectoryConfig(dt=0.05, t_final=0.5)
        rising = lambda s, rho: -1e-9 * dissipator(SIGMA_MINUS, rho)
        pe = integrate_deterministic(rising, spec, cfg).pe
        assert pe[-1] > 1.0
        assert pe[-1] - 1.0 == pytest.approx(5e-10, rel=1e-5)

    @pytest.mark.parametrize("generator, spec", [
        (no_feedback_generator, SchemeSpec(SchemeKind.NO_FEEDBACK, gamma=GAMMA)),
        (wm_generator, wm_spec(eta=0.5)),
        (ancilla_decay_generator,
         SchemeSpec(SchemeKind.ANCILLA_COHERENT, gamma=GAMMA, g=0.92, kappa=92.0)),
        (ancilla_feedback_generator,
         SchemeSpec(SchemeKind.ANCILLA_COHERENT, gamma=GAMMA, g=0.92, kappa=92.0,
                    lambda_gain=1.0)),
    ])
    def test_block_powers_keep_trace_and_hermiticity(self, generator, spec, rng):
        # the state carried from block to block is not repaired: over the
        # 2,247 blocks of qlift compare's ancilla run at the defaults (125 us,
        # 1,150,000 steps) its real coordinates drift at most 3.0e-11 in
        # trace, inside the tolerance states are held to; the states formed
        # from them are Hermitian by construction
        n_steps, dim = 1_150_000, spec.dim
        U, V = dynamics._COORDINATES[dim]
        M = real_matrix(liouvillian_matrix(generator, spec), dim)
        step = dynamics._rk4_powers(M, 125.0 / n_steps, dynamics._BLOCK)[-dim * dim:]
        x = (V @ random_density(rng, dim).ravel()).real
        trace_drift = 0.0
        for _ in range(-(-n_steps // dynamics._BLOCK)):
            x = step @ x
            trace_drift = max(trace_drift, abs(x[:dim].sum() - 1.0))
        assert trace_drift < STATE_ATOL
        rho = (U @ x).reshape(dim, dim)
        assert np.array_equal(rho, rho.conj().T)

    def test_detects_lost_positivity(self):
        # anti-dephasing -gamma D[sigma_z] grows the coherence as
        # 0.3 e^(2 gamma t) while P_e stays at 0.5, so only the eigenvalue
        # audit at the sample times can trip (first at t = 14)
        spec = SchemeSpec(SchemeKind.NO_FEEDBACK, gamma=GAMMA)
        rho0 = np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex)
        cfg = TrajectoryConfig(dt=0.5, t_final=50.0, tau=2.0, initial_state=rho0)
        anti_dephasing = lambda s, rho: -s.gamma * dissipator(SIGMA_Z, rho)
        with pytest.raises(IntegrationError, match="lost positivity"):
            integrate_deterministic(anti_dephasing, spec, cfg)
        got = integration_error(integrate_deterministic, anti_dephasing, spec, cfg)
        assert got == integration_error(reference_integrate, anti_dephasing, spec, cfg)
        assert "at t=14 " in got[0] and got[1][-1] == 12.0

    @pytest.mark.parametrize("generator, spec, dt, n_steps, stride", [
        (no_feedback_generator, SchemeSpec(SchemeKind.NO_FEEDBACK, gamma=GAMMA), 0.2, 1337, 7),
        (wm_generator, wm_spec(eta=0.6, lam=0.03), 0.2, 1337, 7),
        (ancilla_decay_generator,
         SchemeSpec(SchemeKind.ANCILLA_COHERENT, gamma=GAMMA, g=0.3, kappa=2.0),
         0.004, 1300, 9),
        (ancilla_feedback_generator, ANCILLA_FEEDBACK, 0.004, 1300, 9),
        # a sample period longer than a block: some blocks hold no sample
        pytest.param(wm_generator, wm_spec(eta=0.6, lam=0.03), 0.2, 2000, 700,
                     id="stride-over-block"),
        # one chunk of blocks at dim 4, then a last chunk of exactly one block
        pytest.param(ancilla_decay_generator,
                     SchemeSpec(SchemeKind.ANCILLA_COHERENT, gamma=GAMMA, g=0.3, kappa=2.0),
                     0.004, CHUNK_DIM4 * dynamics._BLOCK + 217, 9,
                     id="last-chunk-one-block"),
    ])
    def test_block_propagator_matches_step_loop(self, generator, spec, dt, n_steps,
                                                stride):
        # several blocks, the last one partial, and samples that straddle
        # block boundaries
        assert n_steps > 2 * dynamics._BLOCK and n_steps % dynamics._BLOCK
        assert dynamics._BLOCK % stride
        cfg = TrajectoryConfig(dt=dt, t_final=n_steps * dt, tau=stride * dt)
        assert cfg.n_steps == n_steps and cfg.sample_stride == stride
        got, want = [], []
        pe = integrate_deterministic(generator, spec, cfg,
                                     observer=lambda t, rho: got.append((t, rho))).pe
        pe_ref = reference_integrate(generator, spec, cfg,
                                     observer=lambda t, rho: want.append((t, rho)))
        assert np.max(np.abs(pe - pe_ref)) <= 1e-11
        assert [t for t, _ in got] == [t for t, _ in want]
        for (_, rho), (_, rho_ref) in zip(got, want):
            np.testing.assert_allclose(rho, rho_ref, rtol=0, atol=1e-11)

    @pytest.mark.parametrize("generator, rho0, t_final, tau, where", [
        # anti-dephasing from a coherence of 1e-12 breaks positivity near
        # t = 673.5, first sampled at t = 675 (step 1350): in the third block
        # of the first chunk
        pytest.param(lambda s, rho: -s.gamma * dissipator(SIGMA_Z, rho),
                     [[0.5, 1e-12], [1e-12, 0.5]], 1000.0, 2.5, "at t=675 ",
                     id="positivity-later-block"),
        # -50 D[sigma_-] grows P_e from 1e-300 as e^t: it leaves [0, 1] at
        # step 1383, and the states carried past that step overflow
        pytest.param(lambda s, rho: -50 * no_feedback_generator(s, rho),
                     np.diag([1e-300, 1 - 1e-300]), 20000.0, 2.5, "at step 1383 ",
                     id="overflow-past-failure"),
    ])
    def test_first_failure_matches_step_loop(self, generator, rho0, t_final, tau, where):
        # the audits read a whole chunk of blocks at once; the failure they
        # report, and the samples observed before it, are the step loop's
        spec = SchemeSpec(SchemeKind.NO_FEEDBACK, gamma=GAMMA)
        cfg = TrajectoryConfig(dt=0.5, t_final=t_final, tau=tau,
                               initial_state=np.array(rho0, dtype=complex))
        got = integration_error(integrate_deterministic, generator, spec, cfg)
        assert got == integration_error(reference_integrate, generator, spec, cfg)
        assert where in got[0]

    @pytest.mark.parametrize("generator, spec, dt", [
        (wm_generator, wm_spec(eta=0.6, lam=0.03), 0.2),
        (ancilla_decay_generator,
         SchemeSpec(SchemeKind.ANCILLA_COHERENT, gamma=GAMMA, g=0.3, kappa=2.0), 0.004),
    ])
    def test_population_does_not_depend_on_sample_period(self, generator, spec, dt):
        # both strides read every step's P_e from the same S @ reads product;
        # only the sample times where full states are formed differ
        pe = [integrate_deterministic(generator, spec,
                                      TrajectoryConfig(dt=dt, t_final=1300 * dt,
                                                       tau=stride * dt)).pe
              for stride in (1, 7)]
        assert np.array_equal(pe[0], pe[1])

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("generator, spec, dt", [
        (wm_generator, wm_spec(eta=0.6, lam=0.03), 0.2),
        (ancilla_decay_generator,
         SchemeSpec(SchemeKind.ANCILLA_COHERENT, gamma=GAMMA, g=0.3, kappa=2.0), 0.004),
    ])
    @pytest.mark.parametrize("count", [1, 7, 512])
    def test_rk4_powers_are_matrix_powers(self, generator, spec, dt, count, real):
        M = liouvillian_matrix(generator, spec)
        if real:
            M = real_matrix(M, spec.dim)
        n = M.shape[0]
        powers = dynamics._rk4_powers(M, dt, count)
        assert powers.shape == (count * n, n) and powers.flags.c_contiguous
        assert powers.dtype == M.dtype
        A = dt * M
        P = np.eye(n) + A + A @ A / 2 + A @ A @ A / 6 + A @ A @ A @ A / 24
        np.testing.assert_allclose(powers[:n], P, rtol=1e-12, atol=1e-15)
        for j in range(1, count + 1):
            np.testing.assert_allclose(powers[(j - 1) * n:j * n],
                                       np.linalg.matrix_power(powers[:n], j), rtol=1e-12)

    def test_integrates_state_gershgorin_cannot_certify(self):
        # a pure state (eigenvalues 0 and 1) whose second Gershgorin disc
        # reaches 0.1 - 0.3 = -0.2: the screen passes it on to eigvalsh until
        # damping has raised the ground population (t ~ 10.5)
        rho0 = np.array([[0.9, 0.3], [0.3, 0.1]], dtype=complex)
        spec = SchemeSpec(SchemeKind.NO_FEEDBACK, gamma=GAMMA)
        cfg = TrajectoryConfig(dt=0.5, t_final=100.0, initial_state=rho0)
        got, want = [], []
        pe = integrate_deterministic(no_feedback_generator, spec, cfg,
                                     observer=lambda t, rho: got.append(rho)).pe
        pe_ref = reference_integrate(no_feedback_generator, spec, cfg,
                                     observer=lambda t, rho: want.append(rho))
        assert np.max(np.abs(pe - pe_ref)) <= 1e-12
        assert len(got) == len(want) == cfg.n_steps + 1
        rhos = np.array(got)
        radius = np.abs(rhos).sum(axis=2)
        uncertified = (2 * rhos.diagonal(axis1=1, axis2=2).real - radius < -1e-8).any(axis=1)
        assert uncertified[:21].all() and not uncertified[22:].any()

    def test_deterministic_rerun_is_identical(self):
        spec = wm_spec(eta=0.9)
        cfg = TrajectoryConfig(dt=0.25, t_final=25.0)
        a = integrate_deterministic(wm_generator, spec, cfg)
        b = integrate_deterministic(wm_generator, spec, cfg)
        assert np.array_equal(a.pe, b.pe)
