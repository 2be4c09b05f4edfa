import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qlift
from qlift import stochastic
from qlift.dynamics import (
    _COORDINATES,
    SchemeKind,
    SchemeSpec,
    TrajectoryConfig,
    _initial_state,
    check_step_size,
    coordinate_matrix,
    feedback_terms,
    integrate_deterministic,
    liouvillian_matrix,
    monitored_qubit,
    no_feedback_generator,
    wm_generator,
)
from qlift.operators import (
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Y,
    check_density,
    excited_state,
)
from qlift.stochastic import EnsembleResult, run_ensemble, sme_step
from qlift.traces import PE_TOLERANCE, HomodyneRecord, PopulationTrace

from conftest import random_density

GAMMA = 0.02


MIXED = 0.5 * np.array([[1.4, 0.3 - 0.2j], [0.3 + 0.2j, 0.6]])  # r = (0.3, 0.2, 0.4)
NEAR_PURE = 0.5 * np.array([[1.79, -0.6j], [0.6j, 0.21]])  # r = (0, 0.6, 0.79)


def nf_spec(eta=1.0, phi=0.0):
    return SchemeSpec(SchemeKind.NO_FEEDBACK, gamma=GAMMA, eta=eta, phi_lo=phi)


def kraus_reference(rho, spec, dt, dw):
    """The Rouchon-Ralph step on a complex 2x2 state, or on a stack of them
    with one dw each: rho <- M rho M+ + (1 - eta) dt L rho L+, renormalized,
    with L = sqrt(gamma) sigma_- e^(-i phi), M = I - L+L dt / 2 + sqrt(eta) dy L
    and dy = sqrt(eta) <L + L+> dt + dw.  Returns the new states and the
    current samples sqrt(eta) <L + L+> + dw / (sqrt(eta) dt)."""
    L = math.sqrt(spec.gamma) * SIGMA_MINUS * np.exp(-1j * spec.phi_lo)
    Ld = L.conj().T
    rt_eta = math.sqrt(spec.eta)
    mean = np.einsum("ij,...ji->...", L + Ld, rho).real
    dy = rt_eta * mean * dt + dw
    M = np.eye(2) - 0.5 * dt * (Ld @ L) + (rt_eta * dy)[..., None, None] * L
    new = M @ rho @ M.conj().swapaxes(-1, -2) + (1.0 - spec.eta) * dt * (L @ rho @ Ld)
    new = new / np.einsum("...ii->...", new).real[..., None, None]
    return new, rt_eta * mean + dw / (rt_eta * dt)


def reference_ensemble(spec, config):
    """The ensemble as a loop of complex 2x2 Kraus steps, every trajectory's
    noise drawn whole from its own SeedSequence((seed, i))."""
    check_step_size(spec, config)
    n_steps, stride = config.n_steps, config.sample_stride
    n_traj = int(config.n_trajectories)
    n_samples = n_steps // stride
    rho0 = excited_state(2) if config.initial_state is None else config.initial_state

    dws = np.empty((n_traj, n_steps))
    for i in range(n_traj):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, i)))
        dws[i] = rng.normal(0.0, math.sqrt(config.dt), n_steps)

    rho = np.broadcast_to(rho0, (n_traj, 2, 2)).astype(complex)
    pe = np.empty((n_traj, n_samples + 1))
    pe[:, 0] = rho[:, 0, 0].real
    currents = np.empty((n_traj, n_samples))
    for step in range(n_steps):
        rho, current = kraus_reference(rho, spec, config.dt, dws[:, step])
        if step % stride == 0:
            currents[:, step // stride] = current
        if (step + 1) % stride == 0:
            pe[:, (step + 1) // stride] = rho[:, 0, 0].real

    sem_pe = pe.std(axis=0, ddof=1) / math.sqrt(n_traj) if n_traj > 1 else np.zeros(n_samples + 1)
    return EnsembleResult(times=config.tau * np.arange(n_samples + 1),
                          mean_pe=pe.mean(axis=0), sem_pe=sem_pe,
                          records=[HomodyneRecord(config.tau, c) for c in currents])


def unbuffered_ensemble(spec, config):
    """run_ensemble's Kraus step loop in Hermitian coordinates without its
    step buffers: maps built here, one temporary per operation, the
    contraction written out as a sum over columns."""
    n_steps, stride = config.n_steps, config.sample_stride
    n_traj = int(config.n_trajectories)
    n_samples = n_steps // stride

    dt = config.dt
    amp = math.sqrt(spec.eta * spec.gamma)
    noise_gain = 1.0 / (math.sqrt(spec.eta) * dt)
    m = SIGMA_MINUS * np.exp(-1j * spec.phi_lo)
    L = math.sqrt(spec.gamma) * m
    A = np.eye(2) - 0.5 * dt * (L.conj().T @ L)
    B = math.sqrt(spec.eta) * L

    def sandwich(x, y):  # rho -> x rho y+ on row-major vectorized matrices
        return np.kron(x, y.conj())

    g0 = coordinate_matrix(sandwich(A, A) + (1.0 - spec.eta) * dt * sandwich(L, L))
    g1 = coordinate_matrix(sandwich(B, A) + sandwich(A, B))
    g2 = coordinate_matrix(sandwich(B, B))
    measured = coordinate_matrix(sandwich(m, np.eye(2)) + sandwich(np.eye(2), m))
    maps = np.concatenate([g0, g1, g2, measured[:1] + measured[1:2]])
    cols = [maps[:, k, None] for k in range(4)]

    V = _COORDINATES[2][1]
    c0 = (V @ _initial_state(spec, config).ravel()).real
    c = np.repeat((c0 / (c0[0] + c0[1]))[:, None], n_traj, axis=1)
    pe = np.empty((n_traj, n_samples + 1))
    pe[:, 0] = c[0]
    currents = np.empty((n_traj, n_samples))

    step = 0
    for block in stochastic._noise_blocks(config.seed, n_traj, n_steps, math.sqrt(dt)):
        for dw in block:
            out = cols[0] * c[0] + cols[1] * c[1] + cols[2] * c[2] + cols[3] * c[3]
            s0 = out[12]
            if step % stride == 0:
                currents[:, step // stride] = dw * noise_gain + amp * s0
            dy = s0 * (amp * dt) + dw
            tilde = out[:4] + dy * (out[4:8] + dy * out[8:12])
            c = tilde / (tilde[0] + tilde[1])
            step += 1
            if step % stride == 0:
                pe[:, step // stride] = c[0]

    sem_pe = pe.std(axis=0, ddof=1) / math.sqrt(n_traj) if n_traj > 1 else np.zeros(n_samples + 1)
    return EnsembleResult(times=config.tau * np.arange(n_samples + 1),
                          mean_pe=pe.mean(axis=0), sem_pe=sem_pe,
                          records=[HomodyneRecord(config.tau, c) for c in currents])


def whole_maps(spec, dt):
    """The (13, 4) step maps G0, G1, G2 and the s_0 row, built whole from the
    scheme's Kraus operators A = I - (i H' + sum rate L+L / 2) dt and B = N."""
    m, c, F = monitored_qubit(spec)
    H, channels = feedback_terms(c, F, spec.eta)
    (_, N), (undetected, _) = channels
    A = np.eye(2) - dt * (1j * H + 0.5 * sum(rate * (L.conj().T @ L) for rate, L in channels))

    def sandwich(x, y):  # rho -> x rho y+ on row-major vectorized matrices
        return np.kron(x, y.conj())

    measured = coordinate_matrix(sandwich(m, np.eye(2)) + sandwich(np.eye(2), m))
    return np.concatenate([
        coordinate_matrix(sandwich(A, A) + undetected * dt * sandwich(c, c)),
        coordinate_matrix(sandwich(N, A) + sandwich(A, N)),
        coordinate_matrix(sandwich(N, N)),
        measured[:1] + measured[1:2],
    ])


def assert_bit_identical(got, want):
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.mean_pe, want.mean_pe)
    assert np.array_equal(got.sem_pe, want.sem_pe)
    for a, b in zip(got.records, want.records, strict=True):
        assert np.array_equal(a.samples, b.samples)


class TestSmeStep:
    def test_zero_noise_matches_kraus_reference(self, rng):
        rho = random_density(rng, 2)
        spec = nf_spec(eta=0.7)
        stepped, current = sme_step(rho, spec, 0.01, 0.0)
        want, want_current = kraus_reference(rho, spec, 0.01, 0.0)
        np.testing.assert_allclose(stepped, want, atol=1e-12)
        assert current == pytest.approx(want_current, rel=1e-12)

    def test_current_reads_conditional_quadrature(self):
        rho = 0.5 * (np.eye(2) + 0.6 * SIGMA_X).astype(complex)
        spec = nf_spec(eta=0.81)
        dt, dw = 0.01, 0.002
        _, current = sme_step(rho, spec, dt, dw)
        expected = math.sqrt(0.81 * GAMMA) * 0.6 + dw / (0.9 * dt)
        assert current == pytest.approx(expected, rel=1e-12)

    def test_rotated_oscillator_measures_sigma_y(self):
        # the current reads <m + m+> = <sigma_x> cos(phi) - <sigma_y> sin(phi),
        # the quadrature that the step's own back-action m = sigma_- e^(-i phi)
        # conditions on
        coh = np.array([[0.5, -0.3j], [0.3j, 0.5]])  # <sigma_y> = 0.6
        spec = nf_spec(eta=1.0, phi=math.pi / 2)
        _, current = sme_step(coh, spec, 0.01, 0.0)
        assert current == pytest.approx(-math.sqrt(GAMMA) * 0.6, rel=1e-9)

    def test_mean_over_noise_is_deterministic_step(self, rng):
        # averaging +w and -w, w^2 = dt, cancels the odd powers of dw; what
        # is left is the master-equation step up to O(dt^2) (about
        # (eta gamma dt)^2, below (gamma dt)^2 = 4e-8 here)
        rho = random_density(rng, 2)
        spec = nf_spec(eta=0.5)
        w = math.sqrt(0.01)
        mean = 0.5 * (sme_step(rho, spec, 0.01, w)[0] + sme_step(rho, spec, 0.01, -w)[0])
        want = 0.5 * (kraus_reference(rho, spec, 0.01, w)[0]
                      + kraus_reference(rho, spec, 0.01, -w)[0])
        np.testing.assert_allclose(mean, want, atol=1e-10)
        euler = rho + 0.01 * no_feedback_generator(spec, rho)
        np.testing.assert_allclose(mean, euler, rtol=0, atol=(GAMMA * 0.01) ** 2)

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

    @pytest.mark.parametrize("rho", [
        # unchecked, this matrix stepped to P_e = 2
        pytest.param(np.diag([1.0, -0.5]), id="negative"),
        # unchecked, normalizing by its zero trace gave NaN with a warning
        pytest.param(np.zeros((2, 2)), id="zero"),
    ])
    def test_rejects_invalid_state(self, rho):
        with pytest.raises(ValueError, match="trace"):
            sme_step(rho, nf_spec(eta=0.8), 0.01, 0.0)

    @pytest.mark.parametrize("dw", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_increment(self, dw):
        with pytest.raises(ValueError, match="Wiener increment"):
            sme_step(excited_state(2), nf_spec(), 0.01, dw)


def kick(rho, spec):
    """d rho_next / d dw of one sme_step over sqrt(eta gamma), by a central
    difference at a vanishing step: the Kraus step is then
    rho + sqrt(eta gamma) dw H[m] rho + O(dw^2, dt)."""
    dt, dw = 1e-10, 1e-6
    up, _ = sme_step(rho, spec, dt, dw)
    down, _ = sme_step(rho, spec, dt, -dw)
    return (up - down) / (2.0 * math.sqrt(spec.eta * spec.gamma) * dw)


class TestBackAction:
    def test_kick_is_measurement_superoperator(self, rng):
        # H[m] rho = m rho + rho m+ - tr(m rho + rho m+) rho, m = sigma_- e^(-i phi)
        for _ in range(20):
            rho = 0.7 * random_density(rng, 2) + 0.15 * np.eye(2)
            spec = nf_spec(eta=0.6, phi=rng.uniform(0.0, 2.0 * math.pi))
            m = SIGMA_MINUS * np.exp(-1j * spec.phi_lo)
            back = m @ rho + rho @ m.conj().T
            want = back - np.trace(back) * rho
            got = kick(rho, spec)
            np.testing.assert_allclose(got, want, atol=1e-9)
            assert abs(np.trace(got)) < 1e-9

    @pytest.mark.parametrize("phi", [0.0, math.pi / 2, math.pi],
                             ids=["phi0", "phi90", "phi180"])
    def test_excited_state_kick_is_quadrature(self, phi):
        # H[m] |e><e| = sigma_x cos(phi) - sigma_y sin(phi): the jump builds
        # coherence along the measured quadrature, with no population kick
        got = kick(excited_state(2), nf_spec(eta=1.0, phi=phi))
        want = math.cos(phi) * SIGMA_X - math.sin(phi) * SIGMA_Y
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_kick_vanishes_on_dark_state(self):
        ground = np.diag([0.0, 1.0]).astype(complex)
        spec = nf_spec(eta=0.8, phi=0.4)
        for dw in (-0.1, 0.03, 0.2):
            stepped, current = sme_step(ground, spec, 0.01, dw)
            np.testing.assert_allclose(stepped, ground, atol=1e-15)
            assert current == pytest.approx(dw / (math.sqrt(0.8) * 0.01), rel=1e-12)


class TestStepMaps:
    def test_memoized_per_spec_and_step(self):
        # SchemeSpec is frozen, so an equal spec built afresh hits the cache
        maps = stochastic._step_maps(nf_spec(eta=0.7, phi=0.3), 0.01)
        assert stochastic._step_maps(nf_spec(eta=0.7, phi=0.3), 0.01) is maps
        assert stochastic._step_maps(nf_spec(eta=0.7, phi=0.3), 0.02) is not maps

    def test_read_only(self):
        maps = stochastic._step_maps(nf_spec(eta=0.7), 0.01)
        with pytest.raises(ValueError):
            maps[0, 0] = 2.0

    @pytest.mark.parametrize("kind, generator", [
        (SchemeKind.NO_FEEDBACK, no_feedback_generator),
        (SchemeKind.WISEMAN_MILBURN, wm_generator),
    ], ids=["no_feedback", "wiseman_milburn"])
    def test_noise_average_is_the_master_equation_step(self, kind, generator):
        # averaged over dy ~ N(0, dt) the unnormalized step is G0 + dt G2,
        # which is exactly I + dt M + dt^2 (rho -> K rho K+) with
        # K = i H' + sum rate L+L / 2 (Rouchon and Ralph, PRA 91, 012118
        # (2015)), M the scheme's Liouvillian in the same coordinates
        rng = np.random.default_rng(10)
        for _ in range(100):
            spec = SchemeSpec(kind, gamma=10 ** rng.uniform(-3, 0), eta=rng.uniform(0.05, 1),
                              lambda_gain=rng.uniform(0, 1), phi_lo=rng.uniform(0, 2 * math.pi))
            dt = 10 ** rng.uniform(-4, -2)
            maps = stochastic._step_maps(spec, dt)
            maps = maps[:13] + maps[13:]
            M = coordinate_matrix(liouvillian_matrix(generator, spec))
            _, c, F = monitored_qubit(spec)
            H, channels = feedback_terms(c, F, spec.eta)
            K = 1j * H + 0.5 * sum(rate * (L.conj().T @ L) for rate, L in channels)
            second = coordinate_matrix(np.kron(K, K.conj()))
            np.testing.assert_allclose(maps[:4] + dt * maps[8:12],
                                       np.eye(4) + dt * M + dt * dt * second, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("phi", [0.0, math.pi / 2, math.pi, 2.0])
    @pytest.mark.parametrize("eta", [1.0, 0.6])
    @pytest.mark.parametrize("kind", [SchemeKind.NO_FEEDBACK, SchemeKind.WISEMAN_MILBURN])
    def test_rows_have_at_most_two_entries(self, kind, eta, phi):
        # with two products per row no summation order can change a sum's
        # rounding, so a lone trajectory repeats its batch column bit for bit
        spec = SchemeSpec(kind, gamma=GAMMA, eta=eta, phi_lo=phi,
                          lambda_gain=0.5 * math.sqrt(eta * GAMMA))
        for dt in (1e-4, 1e-3, 1e-2):
            maps = stochastic._step_maps(spec, dt)
            assert np.count_nonzero(maps.reshape(-1, 13, 4).sum(axis=0), axis=1).max() <= 2

    @pytest.mark.parametrize("kind", [SchemeKind.NO_FEEDBACK, SchemeKind.WISEMAN_MILBURN])
    def test_halves_split_the_maps_exactly(self, kind):
        # each half has at most one nonzero entry per row, so any BLAS kernel
        # rounds each product entry once; the halves add up to the maps
        # built whole, with no entry in both
        rng = np.random.default_rng(12)
        for _ in range(50):
            spec = SchemeSpec(kind, gamma=10 ** rng.uniform(-3, 0), eta=rng.uniform(0.05, 1),
                              lambda_gain=rng.uniform(0, 1), phi_lo=rng.uniform(0, 2 * math.pi))
            dt = 10 ** rng.uniform(-4, -2)
            maps = stochastic._step_maps(spec, dt)
            assert maps.shape == (26, 4)
            assert np.count_nonzero(maps, axis=1).max() <= 1
            assert not np.any((maps[:13] != 0) & (maps[13:] != 0))
            assert np.array_equal(maps[:13] + maps[13:], whole_maps(spec, dt))

    @pytest.mark.parametrize("dt", [1e-4, 1e-3, 2.5e-3, 1e-2])
    def test_unit_efficiency_without_feedback_is_one_part(self, dt):
        # at eta = 1 without feedback (phi = 0) no map row has two entries,
        # so the maps are one part and a step adds no second one
        maps = stochastic._step_maps(nf_spec(eta=1.0), dt)
        assert maps.shape == (13, 4)
        assert np.array_equal(maps, whole_maps(nf_spec(eta=1.0), dt))

    def test_rejects_rows_with_three_entries(self, monkeypatch):
        monkeypatch.setattr(stochastic, "coordinate_matrix", lambda L: np.ones((4, 4)))
        with pytest.raises(ValueError, match="nonzero entries"):
            stochastic._step_maps.__wrapped__(nf_spec(eta=0.7), 0.01)


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

    @pytest.mark.parametrize("phi, initial_state", [
        pytest.param(0.0, None, id="excited"),
        # from a state with coherence the current shows which quadrature it reads
        pytest.param(math.pi / 2, MIXED, id="mixed-phi90"),
    ])
    def test_trajectory_uses_its_own_substream(self, phi, initial_state):
        spec = nf_spec(eta=0.6, phi=phi)
        cfg = TrajectoryConfig(dt=0.1, t_final=4.0, seed=9, n_trajectories=3, tau=0.5,
                               initial_state=initial_state)
        res = run_ensemble(spec, cfg)

        # rebuild trajectory 2 alone from SeedSequence((seed, 2))
        rng = np.random.default_rng(np.random.SeedSequence((9, 2)))
        dws = rng.normal(0.0, math.sqrt(0.1), 40)
        rho = excited_state(2) if initial_state is None else initial_state
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

    def test_rejects_feedback_scheme(self):
        # the four-level scheme is rejected where every step passes, so by
        # sme_step as well
        spec = SchemeSpec(SchemeKind.ANCILLA_COHERENT, gamma=GAMMA, g=0.1, kappa=1.0,
                          lambda_gain=0.1)
        with pytest.raises(ValueError, match="single-qubit"):
            sme_step(excited_state(2), spec, 0.1, 0.0)

    @pytest.mark.parametrize("lam", [0.1, 1.0])  # a counted gain of 1.0 would cap dt at 0.01
    def test_no_feedback_ignores_gain(self, lam):
        cfg = TrajectoryConfig(dt=0.1, t_final=10.0, seed=6, n_trajectories=4, tau=0.5)
        gained = SchemeSpec(SchemeKind.NO_FEEDBACK, gamma=GAMMA, eta=0.8, lambda_gain=lam)
        assert_bit_identical(run_ensemble(gained, cfg), run_ensemble(nf_spec(eta=0.8), cfg))
        assert np.array_equal(integrate_deterministic(no_feedback_generator, gained, cfg).pe,
                              integrate_deterministic(no_feedback_generator, nf_spec(), cfg).pe)

    def test_rejects_partial_sample_period(self):
        spec = nf_spec()
        cfg = TrajectoryConfig(dt=0.1, t_final=1.0, tau=0.4)  # 10 steps, stride 4
        with pytest.raises(ValueError, match="sample"):
            run_ensemble(spec, cfg)

    def test_rejects_initial_state_of_wrong_dimension(self):
        cfg = TrajectoryConfig(dt=0.1, t_final=1.0, initial_state=np.eye(4) / 4)
        with pytest.raises(ValueError, match=r"\(4, 4\).*\(2, 2\)"):
            run_ensemble(nf_spec(), cfg)


class TestEnsembleMatchesReferenceLoop:
    @pytest.mark.parametrize("spec, initial_state", [
        pytest.param(nf_spec(eta=1.0), None, id="eta1"),
        pytest.param(nf_spec(eta=0.6), None, id="eta0.6"),
        pytest.param(nf_spec(eta=1.0, phi=math.pi / 2), None, id="eta1-phi90"),
        pytest.param(nf_spec(eta=0.6, phi=math.pi / 2), None, id="eta0.6-phi90"),
        # the phase matters only from a state with coherence
        pytest.param(nf_spec(eta=0.6, phi=math.pi / 2), MIXED, id="mixed-phi90"),
        # at eta = 1 a mixed state purifies toward the sphere
        pytest.param(nf_spec(eta=1.0), NEAR_PURE, id="eta1-near-pure"),
    ])
    def test_agrees_with_complex_loop(self, spec, initial_state):
        cfg = TrajectoryConfig(dt=0.01, t_final=10.0, seed=17, n_trajectories=24,
                               tau=0.5, initial_state=initial_state)
        res = run_ensemble(spec, cfg)
        ref = reference_ensemble(spec, cfg)
        np.testing.assert_array_equal(res.times, ref.times)
        np.testing.assert_allclose(res.mean_pe, ref.mean_pe, rtol=0, atol=1e-12)
        np.testing.assert_allclose(res.sem_pe, ref.sem_pe, rtol=0, atol=1e-12)
        for got, want in zip(res.records, ref.records, strict=True):
            np.testing.assert_allclose(got.samples, want.samples, rtol=0, atol=1e-12)


class TestFeedbackEnsemble:
    @pytest.mark.parametrize("eta", [1.0, 0.6])
    def test_mean_tracks_feedback_master_equation(self, eta):
        # the conditional ensemble under Wiseman-Milburn feedback at the
        # optimal gain agrees with RK4 on wm_generator, and sits far above
        # the bare decay it slows
        spec = SchemeSpec(SchemeKind.WISEMAN_MILBURN, gamma=GAMMA, eta=eta,
                          lambda_gain=0.5 * math.sqrt(eta * GAMMA))
        cfg = TrajectoryConfig(dt=0.01, t_final=40.0, seed=31, n_trajectories=2000, tau=1.0)
        res = run_ensemble(spec, cfg)
        want = integrate_deterministic(wm_generator, spec, cfg).pe[::cfg.sample_stride]
        gap = np.abs(res.mean_pe - want)
        assert gap[0] == 0.0
        assert np.all(gap[1:] < 5.0 * res.sem_pe[1:])
        assert res.mean_pe[-1] - math.exp(-GAMMA * 40.0) > 20.0 * res.sem_pe[-1]


class TestEnsembleBatch:
    def test_lone_trajectory_matches_its_ensemble_column(self):
        # a single trajectory must take the same arithmetic path as a column
        # of a batch, though BLAS switches kernels at one column and, past
        # 262,144 multiply-adds (2,520 columns of two-part maps, 5,041 of
        # one-part maps), splits the product over threads; the feedback maps
        # have the most two-entry rows, and at eta = 1 without feedback the
        # maps are one part
        wm = SchemeSpec(SchemeKind.WISEMAN_MILBURN, gamma=GAMMA, eta=0.7, phi_lo=0.4,
                        lambda_gain=0.5 * math.sqrt(0.7 * GAMMA))
        cfg = dict(dt=0.1, t_final=20.0, seed=8, tau=0.5)
        for spec in (nf_spec(eta=0.7, phi=0.4), wm, nf_spec(eta=1.0)):
            alone = run_ensemble(spec, TrajectoryConfig(n_trajectories=1, **cfg))
            for n_traj in (3, 6000):
                batch = run_ensemble(spec, TrajectoryConfig(n_trajectories=n_traj, **cfg))
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

    def test_small_population_keeps_relative_precision(self):
        # P_e is a coordinate of the state, not (1 + z) / 2, so it keeps its
        # relative precision down to P_e ~ 1e-9 (e^-20 at t = 1000)
        cfg = TrajectoryConfig(dt=0.05, t_final=1000.0, seed=3, n_trajectories=4, tau=0.5)
        res = run_ensemble(nf_spec(), cfg)
        ref = reference_ensemble(nf_spec(), cfg)
        small = ref.mean_pe < 1e-8
        assert small.sum() > 100
        np.testing.assert_allclose(res.mean_pe[small], ref.mean_pe[small], rtol=1e-10, atol=0)

    def test_lossy_detection_mean_is_unbiased(self):
        # at eta < 1 the clip r / max(1, |r|) of an Euler step put the pooled
        # mean 3.6 standard errors below exp(-gamma t) here; the Kraus step
        # needs no repair and sits within noise
        spec = nf_spec(eta=0.8)
        gaps, sems = [], []
        for seed in range(1000, 1040):
            cfg = TrajectoryConfig(dt=0.0025, t_final=0.5, seed=seed,
                                   n_trajectories=2000, tau=0.5)
            res = run_ensemble(spec, cfg)
            gaps.append(res.mean_pe[-1] - math.exp(-GAMMA * 0.5))
            sems.append(res.sem_pe[-1])
        gap = np.mean(gaps)
        sem = math.sqrt(np.sum(np.square(sems))) / len(sems)
        assert abs(gap) < 3.0 * sem

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

    @pytest.mark.parametrize("n_traj", [1, 3, 7])
    def test_noise_blocks_continue_each_trajectory_stream(self, monkeypatch, n_traj):
        # blocks of 13 steps do not divide the 50 steps
        monkeypatch.setattr(stochastic, "_NOISE_BYTES", 8 * n_traj * 13)
        seed, n_steps, sd = 17, 50, 0.3
        views, draws = [], []
        for block in stochastic._noise_blocks(seed, n_traj, n_steps, sd):
            views.append(block)
            draws.append(block.copy())
        assert [b.shape for b in draws] == [(13, n_traj)] * 3 + [(11, n_traj)]
        assert all(np.shares_memory(view, views[0]) for view in views[1:])
        noise = np.concatenate(draws)
        for i in range(n_traj):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, i))))
            want = rng.normal(0.0, sd, n_steps)
            assert np.array_equal(noise[:, i].view(np.int64), want.view(np.int64))

    def test_noise_memory_is_bounded(self):
        # 2000 trajectories x 2200 steps: one noise array would take 35 MB
        spec = nf_spec()
        cfg = TrajectoryConfig(dt=0.05, t_final=110.0, seed=5, n_trajectories=2000, tau=55.0)
        # margin for the step temporaries and the live generators
        bound = stochastic._NOISE_BYTES + 4 * 2**20
        assert 8 * cfg.n_trajectories * cfg.n_steps > bound
        tracemalloc.start()
        try:
            run_ensemble(spec, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


class TestSubstreamSeeding:
    """The generators' state words, hashed for all trajectories at once, are
    numpy's SeedSequence((seed, i)) words."""

    @pytest.mark.parametrize("seed", [
        0, 1, 2**32 - 1, 2**32, 2**64 + 5,
        # five entropy words: one more than the pool, mixed in after it
        2**96 + 7,
    ])
    def test_states_are_seed_sequence_states(self, seed):
        states = stochastic._substream_states(seed, 300)
        assert states.shape == (300, 4) and states.dtype == np.uint64
        preset = stochastic._preset_seed_type()
        for i, words in enumerate(states):
            sequence = np.random.SeedSequence((seed, i))
            assert np.array_equal(words, sequence.generate_state(4, np.uint64))
            got = np.random.Generator(np.random.PCG64(preset(words)))
            want = np.random.default_rng(sequence)
            assert np.array_equal(got.standard_normal(4), want.standard_normal(4))

    def test_rejects_keys_past_one_word(self):
        # trajectory 2**32 would key its stream with two 32-bit words
        with pytest.raises(ValueError, match="2\\*\\*32"):
            stochastic._substream_states(0, 2**32 + 1)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            stochastic._substream_states(-1, 3)

    def test_integral_float_seed_is_that_integer(self):
        spec = nf_spec(eta=0.8)
        cfgs = [TrajectoryConfig(dt=0.1, t_final=3.0, seed=seed, n_trajectories=4, tau=0.5)
                for seed in (5.0, 5)]
        assert type(cfgs[0].seed) is int
        assert_bit_identical(run_ensemble(spec, cfgs[0]), run_ensemble(spec, cfgs[1]))

    def test_import_leaves_numpy_random_unloaded(self):
        # loading numpy.random takes ~14 ms; only a stochastic run needs it
        code = "import sys, qlift, qlift.cli; print('numpy.random' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(qlift.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out == "False\n"


class TestHomodyneRecord:
    @pytest.mark.parametrize("period", [0.0, -0.5, math.inf, math.nan])
    def test_rejects_bad_sample_period(self, period):
        with pytest.raises(ValueError, match="sample_period"):
            HomodyneRecord(period, np.ones(4))

    @pytest.mark.parametrize("samples", [[], [[1.0, 2.0]], [1.0, math.nan], [-math.inf, 1.0]])
    def test_rejects_bad_samples(self, samples):
        with pytest.raises(ValueError, match="samples"):
            HomodyneRecord(0.5, samples)


class TestPopulationTrace:
    @pytest.mark.parametrize("period", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_sample_period(self, period):
        with pytest.raises(ValueError, match="sample_period"):
            PopulationTrace(period, np.ones(4))

    @pytest.mark.parametrize("pe", [[[1.0, 0.5]], [1.0], [1.0, math.nan],
                                    [1.0, -2 * PE_TOLERANCE], [1.0 + 2 * PE_TOLERANCE, 0.5]])
    def test_rejects_bad_populations(self, pe):
        with pytest.raises(ValueError):
            PopulationTrace(0.5, pe)

    def test_accepts_excursions_within_tolerance(self):
        pe = [1.0 + PE_TOLERANCE, 0.5, -PE_TOLERANCE]
        assert np.array_equal(PopulationTrace(0.5, pe).pe, pe)

    @pytest.mark.parametrize("period, n", [(0.1, 11), (1 / 3, 151), (125.0 / 1_150_000, 1_150_001)])
    def test_times_are_the_period_multiples(self, period, n):
        trace = PopulationTrace(period, np.ones(n))
        assert np.array_equal(trace.times, period * np.arange(n))


class TestEnsembleMatchesParentLoop:
    """The buffered step loop repeats the unbuffered one bit for bit."""

    CASES = [
        pytest.param(nf_spec(eta=1.0), None, id="eta1-excited"),
        # trajectories purify toward the sphere one by one
        pytest.param(nf_spec(eta=1.0), NEAR_PURE, id="eta1-near-pure"),
        pytest.param(nf_spec(eta=0.6, phi=math.pi / 2), MIXED, id="eta0.6-phi90-mixed"),
    ]

    @pytest.mark.parametrize("n_traj", [1, 4, 24])
    @pytest.mark.parametrize("spec, initial_state", CASES)
    def test_bit_identical(self, spec, initial_state, n_traj):
        cfg = TrajectoryConfig(dt=0.01, t_final=10.0, seed=23, n_trajectories=n_traj,
                               tau=0.5, initial_state=initial_state)
        assert_bit_identical(run_ensemble(spec, cfg), unbuffered_ensemble(spec, cfg))

    @pytest.mark.parametrize("chunk", [33, 77])
    @pytest.mark.parametrize("spec, initial_state", CASES)
    def test_bit_identical_when_blocks_end_mid_period(self, monkeypatch, spec,
                                                      initial_state, chunk):
        # 50 steps per sample: blocks of 33 steps hold one sampled step or
        # none, blocks of 77 one or two, each at a different offset
        cfg = TrajectoryConfig(dt=0.01, t_final=10.0, seed=29, n_trajectories=4,
                               tau=0.5, initial_state=initial_state)
        assert cfg.sample_stride == 50
        monkeypatch.setattr(stochastic, "_NOISE_BYTES", 8 * 4 * chunk)
        assert_bit_identical(run_ensemble(spec, cfg), unbuffered_ensemble(spec, cfg))
