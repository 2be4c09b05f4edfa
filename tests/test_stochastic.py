import math
import tracemalloc

import numpy as np
import pytest

from qlift import stochastic
from qlift.dynamics import (
    SchemeKind,
    SchemeSpec,
    TrajectoryConfig,
    check_step_size,
    liouvillian_matrix,
    no_feedback_generator,
)
from qlift.operators import (
    PROJ_EXCITED,
    SIGMA_MINUS,
    SIGMA_X,
    check_density,
    excited_state,
    project_physical,
)
from qlift.stochastic import EnsembleResult, hsup, run_ensemble, sme_step
from qlift.traces import HomodyneRecord

from conftest import random_density, random_matrix

GAMMA = 0.02


def nf_spec(eta=1.0, phi=0.0):
    return SchemeSpec(SchemeKind.NO_FEEDBACK, gamma=GAMMA, eta=eta, phi_lo=phi)


def reference_ensemble(spec, config):
    """The complex 2x2 per-step ensemble loop that the Pauli-coordinate batch
    replaced, plus its rule for eta = 1: a state that is pure, or has been
    projected onto a pure state, is replaced after every step by the
    projector onto its top eigenvector.  Returns the EnsembleResult and how
    many trajectory-steps had to be projected back onto the state space."""
    check_step_size(spec, config)
    n_steps, stride = config.n_steps, config.sample_stride
    n_traj = int(config.n_trajectories)
    n_samples = n_steps // stride
    rho0 = excited_state(2) if config.initial_state is None else config.initial_state

    dt = config.dt
    amp = math.sqrt(spec.eta * spec.gamma)
    noise_gain = 1.0 / (math.sqrt(spec.eta) * dt)
    m = SIGMA_MINUS * np.exp(-1j * spec.phi_lo)
    md = m.conj().T
    mq = m + md
    drift_mat = liouvillian_matrix(no_feedback_generator, spec, 2)

    dws = np.empty((n_traj, n_steps))
    for i in range(n_traj):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, i)))
        dws[i] = rng.normal(0.0, math.sqrt(dt), n_steps)

    rho = np.broadcast_to(rho0, (n_traj, 2, 2)).astype(complex)
    pe = np.empty((n_traj, n_samples + 1))
    pe[:, 0] = rho[:, 0, 0].real
    currents = np.empty((n_traj, n_samples))
    repairs = 0
    keep_pure = spec.eta == 1.0
    pure = np.full(n_traj, keep_pure and np.trace(rho0 @ rho0).real >= 1.0)
    for step in range(n_steps):
        if step % stride == 0:
            mean_q = np.einsum("ij,nji->n", mq, rho).real
            currents[:, step // stride] = amp * mean_q + dws[:, step] * noise_gain
        drift = (rho.reshape(n_traj, 4) @ drift_mat.T).reshape(n_traj, 2, 2)
        s = np.einsum("ij,njk->nik", m, rho) + np.einsum("nij,jk->nik", rho, md)
        kick = s - np.einsum("nii->n", s).real[:, None, None] * rho
        rho = rho + dt * drift + (amp * dws[:, step])[:, None, None] * kick
        rho = 0.5 * (rho + rho.conj().transpose(0, 2, 1))
        rho = rho / np.einsum("nii->n", rho).real[:, None, None]
        diag_min = np.minimum(rho[:, 0, 0].real, rho[:, 1, 1].real)
        det = (rho[:, 0, 0] * rho[:, 1, 1] - rho[:, 0, 1] * rho[:, 1, 0]).real
        bad = np.nonzero((diag_min < 0.0) | (det < 0.0))[0]
        repairs += bad.size
        for i in bad:
            rho[i] = project_physical(rho[i])
        if keep_pure:
            pure[bad] = True
            top = np.linalg.eigh(rho[pure])[1][..., -1]
            rho[pure] = top[:, :, None] * top.conj()[:, None, :]
        if (step + 1) % stride == 0:
            pe[:, (step + 1) // stride] = rho[:, 0, 0].real

    sem_pe = pe.std(axis=0, ddof=1) / math.sqrt(n_traj) if n_traj > 1 else np.zeros(n_samples + 1)
    result = EnsembleResult(times=config.tau * np.arange(n_samples + 1),
                            mean_pe=pe.mean(axis=0), sem_pe=sem_pe,
                            records=[HomodyneRecord(config.tau, c) for c in currents])
    return result, repairs


class TestHsup:
    def test_traceless(self, rng):
        for _ in range(20):
            out = hsup(random_matrix(rng, 2), random_density(rng, 2))
            assert abs(np.trace(out)) < 1e-12

    def test_excited_state_kick_is_quadrature(self):
        # H[sigma_-] |e><e| = sigma_x: the jump builds coherence, no population kick
        np.testing.assert_allclose(hsup(SIGMA_MINUS, PROJ_EXCITED), SIGMA_X, atol=1e-12)

    def test_vanishes_on_dark_state(self):
        ground = np.diag([0.0, 1.0]).astype(complex)
        np.testing.assert_allclose(hsup(SIGMA_MINUS, ground),
                                   np.zeros((2, 2)), atol=1e-12)


class TestSmeStep:
    def test_zero_noise_reduces_to_euler(self, rng):
        # mix toward the center so the positivity repair stays a no-op
        rho = 0.7 * random_density(rng, 2) + 0.15 * np.eye(2)
        spec = nf_spec(eta=0.7)
        stepped, _ = sme_step(rho, spec, 0.01, 0.0)
        euler = rho + 0.01 * no_feedback_generator(spec, rho)
        np.testing.assert_allclose(stepped, euler, atol=1e-12)

    def test_current_reads_conditional_quadrature(self):
        rho = 0.5 * (np.eye(2) + 0.6 * SIGMA_X).astype(complex)
        spec = nf_spec(eta=0.81)
        dt, dw = 0.01, 0.002
        _, current = sme_step(rho, spec, dt, dw)
        expected = math.sqrt(0.81 * GAMMA) * 0.6 + dw / (0.9 * dt)
        assert current == pytest.approx(expected, rel=1e-12)

    def test_rotated_oscillator_measures_sigma_y(self):
        coh = np.array([[0.5, -0.3j], [0.3j, 0.5]])  # <sigma_y> = 0.6
        spec = nf_spec(eta=1.0, phi=math.pi / 2)
        _, current = sme_step(coh, spec, 0.01, 0.0)
        assert current == pytest.approx(math.sqrt(GAMMA) * 0.6, rel=1e-9)

    def test_mean_over_noise_is_deterministic_step(self, rng):
        # the stochastic term is linear in dw, so averaging +w and -w cancels
        # it; keep the state away from the boundary so no clipping kicks in
        rho = 0.7 * random_density(rng, 2) + 0.15 * np.eye(2)
        spec = nf_spec(eta=0.5)
        w = math.sqrt(0.01)
        up, _ = sme_step(rho, spec, 0.01, w)
        down, _ = sme_step(rho, spec, 0.01, -w)
        flat, _ = sme_step(rho, spec, 0.01, 0.0)
        np.testing.assert_allclose(0.5 * (up + down), flat, atol=1e-10)

    def test_output_is_valid_state(self, rng):
        rho = excited_state(2)
        spec = nf_spec(eta=0.9)
        rng_local = np.random.default_rng(5)
        for _ in range(200):
            rho, _ = sme_step(rho, spec, 0.02, rng_local.normal(0, math.sqrt(0.02)))
            check_density(rho, atol=1e-10)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            sme_step(np.eye(4) / 4, nf_spec(), 0.01, 0.0)


class TestRunEnsemble:
    def test_mean_tracks_master_equation(self):
        spec = nf_spec(eta=0.8)
        cfg = TrajectoryConfig(dt=0.05, t_final=30.0, seed=11,
                               n_trajectories=300, tau=0.5)
        res = run_ensemble(spec, cfg)
        exact = np.exp(-GAMMA * res.times)
        gap = np.abs(res.mean_pe - exact)
        assert gap[0] == 0.0
        assert np.all(gap[1:] < 5.0 * res.sem_pe[1:])

    def test_rerun_is_bit_identical(self):
        spec = nf_spec()
        cfg = TrajectoryConfig(dt=0.1, t_final=5.0, seed=4, n_trajectories=8, tau=0.5)
        a = run_ensemble(spec, cfg)
        b = run_ensemble(spec, cfg)
        assert np.array_equal(a.mean_pe, b.mean_pe)
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.samples, rb.samples)

    def test_trajectory_uses_its_own_substream(self):
        spec = nf_spec(eta=0.6)
        cfg = TrajectoryConfig(dt=0.1, t_final=4.0, seed=9, n_trajectories=3, tau=0.5)
        res = run_ensemble(spec, cfg)

        # rebuild trajectory 2 alone from SeedSequence((seed, 2))
        rng = np.random.default_rng(np.random.SeedSequence((9, 2)))
        dws = rng.normal(0.0, math.sqrt(0.1), 40)
        rho = excited_state(2)
        samples = []
        for step, dw in enumerate(dws):
            if step % 5 == 0:
                _, current = sme_step(rho, spec, 0.1, dw)
                samples.append(current)
            rho, _ = sme_step(rho, spec, 0.1, dw)
        np.testing.assert_allclose(res.records[2].samples, samples, atol=1e-9)

    def test_growing_ensemble_keeps_existing_members(self):
        spec = nf_spec()
        small = run_ensemble(spec, TrajectoryConfig(dt=0.1, t_final=3.0, seed=2,
                                                    n_trajectories=2, tau=0.5))
        large = run_ensemble(spec, TrajectoryConfig(dt=0.1, t_final=3.0, seed=2,
                                                    n_trajectories=5, tau=0.5))
        for i in range(2):
            assert np.array_equal(small.records[i].samples, large.records[i].samples)

    def test_current_noise_scale(self):
        # the record is dominated by the dW/(sqrt(eta) dt) term decimated to
        # tau, so its variance is close to 1/(eta dt)
        spec = nf_spec(eta=0.5)
        cfg = TrajectoryConfig(dt=0.1, t_final=100.0, seed=21,
                               n_trajectories=40, tau=0.5)
        res = run_ensemble(spec, cfg)
        samples = np.concatenate([r.samples for r in res.records])
        assert samples.var() == pytest.approx(1.0 / (0.5 * 0.1), rel=0.08)
        assert abs(samples.mean()) < 5.0 * samples.std() / math.sqrt(samples.size)

    def test_record_shapes_and_period(self):
        spec = nf_spec()
        cfg = TrajectoryConfig(dt=0.1, t_final=10.0, seed=1, n_trajectories=4, tau=1.0)
        res = run_ensemble(spec, cfg)
        assert len(res.records) == 4
        assert res.records[0].sample_period == pytest.approx(1.0)
        assert res.records[0].samples.shape == (10,)
        assert res.times.shape == (11,)
        assert res.mean_pe.shape == (11,)

    def test_rejects_four_level_scheme(self):
        spec = SchemeSpec(SchemeKind.ANCILLA_COHERENT, gamma=GAMMA, g=0.1, kappa=1.0)
        with pytest.raises(ValueError, match="single-qubit"):
            run_ensemble(spec, TrajectoryConfig(dt=1e-4, t_final=0.1))

    def test_rejects_partial_sample_period(self):
        spec = nf_spec()
        cfg = TrajectoryConfig(dt=0.1, t_final=1.0, tau=0.4)  # 10 steps, stride 4
        with pytest.raises(ValueError, match="sample"):
            run_ensemble(spec, cfg)

    def test_rejects_initial_state_of_wrong_dimension(self):
        cfg = TrajectoryConfig(dt=0.1, t_final=1.0, initial_state=np.eye(4) / 4)
        with pytest.raises(ValueError, match=r"\(4, 4\).*\(2, 2\)"):
            run_ensemble(nf_spec(), cfg)


MIXED = 0.5 * np.array([[1.4, 0.3 - 0.2j], [0.3 + 0.2j, 0.6]])  # r = (0.3, 0.2, 0.4)
NEAR_PURE = 0.5 * np.array([[1.79, -0.6j], [0.6j, 0.21]])  # r = (0, 0.6, 0.79)


class TestEnsembleMatchesReferenceLoop:
    @pytest.mark.parametrize("spec, initial_state, must_repair", [
        pytest.param(nf_spec(eta=1.0), None, True, id="eta1"),
        pytest.param(nf_spec(eta=0.6), None, False, id="eta0.6"),
        pytest.param(nf_spec(eta=1.0, phi=math.pi / 2), None, True, id="eta1-phi90"),
        pytest.param(SchemeSpec(SchemeKind.NO_FEEDBACK, gamma=GAMMA, eta=0.6,
                                phi_lo=math.pi / 2, omega_s=0.3),
                     None, False, id="eta0.6-phi90-omega"),
        # the phase matters only from a state with coherence
        pytest.param(nf_spec(eta=0.6, phi=math.pi / 2), MIXED, False, id="mixed-phi90"),
        # at eta = 1 a mixed state purifies until the clip puts it on the sphere
        pytest.param(nf_spec(eta=1.0), NEAR_PURE, True, id="eta1-near-pure"),
    ])
    def test_agrees_with_complex_loop(self, spec, initial_state, must_repair):
        cfg = TrajectoryConfig(dt=0.01, t_final=10.0, seed=17, n_trajectories=24,
                               tau=0.5, initial_state=initial_state)
        res = run_ensemble(spec, cfg)
        ref, repairs = reference_ensemble(spec, cfg)
        if must_repair:
            assert repairs > 0
        np.testing.assert_array_equal(res.times, ref.times)
        np.testing.assert_allclose(res.mean_pe, ref.mean_pe, rtol=0, atol=1e-12)
        np.testing.assert_allclose(res.sem_pe, ref.sem_pe, rtol=0, atol=1e-12)
        for got, want in zip(res.records, ref.records, strict=True):
            np.testing.assert_allclose(got.samples, want.samples, rtol=0, atol=1e-12)


class TestEnsembleBatch:
    def test_lone_trajectory_matches_its_ensemble_column(self):
        # a single trajectory must take the same arithmetic path as a column
        # of a batch (a BLAS product would switch kernels at one column)
        spec = nf_spec(eta=0.7, phi=0.4)
        cfg = dict(dt=0.1, t_final=20.0, seed=8, tau=0.5)
        alone = run_ensemble(spec, TrajectoryConfig(n_trajectories=1, **cfg))
        batch = run_ensemble(spec, TrajectoryConfig(n_trajectories=3, **cfg))
        assert np.array_equal(alone.records[0].samples, batch.records[0].samples)

    def test_unit_efficiency_mean_is_unbiased(self):
        # clipping only the steps that leave the Bloch sphere would put the
        # mean 6.8-7.1 standard errors below exp(-gamma t) at t = 0.5 here
        spec = nf_spec(eta=1.0)
        cfg = TrajectoryConfig(dt=0.01, t_final=2.0, seed=1, n_trajectories=4000, tau=0.5)
        res = run_ensemble(spec, cfg)
        gap = np.abs(res.mean_pe - np.exp(-GAMMA * res.times))
        assert gap[0] == 0.0
        assert np.all(gap[1:] < 5.0 * res.sem_pe[1:])

    def test_noise_chunks_do_not_change_the_result(self, monkeypatch):
        spec = nf_spec(eta=0.8)
        cfg = TrajectoryConfig(dt=0.1, t_final=10.0, seed=3, n_trajectories=4, tau=0.5)
        whole = run_ensemble(spec, cfg)

        blocks = []
        draw = stochastic._noise_blocks

        def counted(*args):
            for block in draw(*args):
                blocks.append(len(block))
                yield block

        monkeypatch.setattr(stochastic, "_NOISE_BYTES", 8 * 4 * 30)
        monkeypatch.setattr(stochastic, "_noise_blocks", counted)
        chunked = run_ensemble(spec, cfg)
        assert blocks == [30, 30, 30, 10]
        assert np.array_equal(chunked.mean_pe, whole.mean_pe)
        assert np.array_equal(chunked.sem_pe, whole.sem_pe)
        for a, b in zip(chunked.records, whole.records, strict=True):
            assert np.array_equal(a.samples, b.samples)

    def test_noise_memory_is_bounded(self):
        # 2000 trajectories x 2200 steps: one noise array would take 35 MB
        spec = nf_spec()
        cfg = TrajectoryConfig(dt=0.05, t_final=110.0, seed=5, n_trajectories=2000, tau=55.0)
        # margin for the step temporaries and the saved generator states
        bound = stochastic._NOISE_BYTES + 4 * 2**20
        assert 8 * cfg.n_trajectories * cfg.n_steps > bound
        tracemalloc.start()
        try:
            run_ensemble(spec, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound
