"""Correctness checks for the benchmark workloads.

Every checker is a pure function of a workload's outputs and returns a list
of failure messages; an empty list means the output passed.  Reference values
are computed here from the physics, not taken from qlift, so a defect in
qlift's closed forms cannot make a wrong result look right.
"""

import math

import numpy as np

# criterion 3: fitted feedback rate vs the closed form
RATE_RTOL = 0.005
# test_dynamics' single-excitation oracle for the ancilla rate
ANCILLA_RTOL = 1e-3
# criterion 6: ensemble mean vs exp(-gamma t), in standard errors
ENSEMBLE_SEM_LIMIT = 5.0


def gamma_wm(gamma, eta, lam):
    """Homodyne-feedback rate gamma - 2 sqrt(eta gamma) lam + 2 lam^2."""
    return gamma - 2.0 * math.sqrt(eta * gamma) * lam + 2.0 * lam * lam


def optimal_gain(gamma, eta):
    """Gain minimizing gamma_wm: sqrt(eta gamma) / 2."""
    return 0.5 * math.sqrt(eta * gamma)


def cooperativity(g, kappa, gamma):
    return 4.0 * g * g / (kappa * gamma)


def ancilla_oracle_rate(gamma, g, kappa):
    """Exact decay rate of the passive ancilla model.

    In the one-excitation sector the amplitudes evolve under
    [[-gamma/2, -i g], [-i g, -kappa/2]]; the population decays at twice the
    magnitude of the slow eigenvalue's real part.
    """
    a = np.array([[-gamma / 2, -1j * g], [-1j * g, -kappa / 2]])
    return 2.0 * float(min(-np.linalg.eigvals(a).real))


def check_exit(code, what):
    return [] if code == 0 else [f"{what}: exit code {code}"]


def check_rate(fitted, model, what, rtol=RATE_RTOL):
    dev = abs(fitted - model) / model
    if math.isfinite(dev) and dev <= rtol:
        return []
    return [f"{what}: fitted rate {fitted:.6g} vs {model:.6g}, "
            f"deviation {dev:.3%} (limit {rtol:.2%})"]


def check_argmin(fitted, center, what, tol=1):
    k = int(np.argmin(fitted))
    if abs(k - center) <= tol:
        return []
    return [f"{what}: rate minimum at grid index {k}, optimum at {center} "
            f"(limit {tol} step)"]


def compare_expectations(gamma, eta_list, g, kappa):
    """Reference rates for every row of `qlift compare`, keyed by scheme."""
    rates = {"no_feedback": gamma}
    for eta in eta_list:
        rates[f"wm_eta_{eta:g}"] = gamma_wm(gamma, eta, optimal_gain(gamma, eta))
    c = cooperativity(g, kappa, gamma)
    return {
        "two_level": rates,
        "ancilla_oracle": ancilla_oracle_rate(gamma, g, kappa),
        "ancilla_closed_form": gamma / (1.0 + c),
    }


def check_compare(exit_code, rows, expected):
    """Check `qlift compare` output rows (scheme -> {'gamma_fit', 'gamma_model'}).

    Returns (failures, report).  The report carries the criterion-5 gap: the
    fitted ancilla lifetime next to the paper's closed form and the oracle.
    The gap itself is never a failure, but the ancilla row must be present
    and must still show the paper's closed form, so the gap stays visible.
    """
    failures = check_exit(exit_code, "compare")
    if exit_code != 0:
        return failures, None
    for scheme, model in expected["two_level"].items():
        if scheme not in rows:
            failures.append(f"compare: row {scheme} missing")
            continue
        failures += check_rate(rows[scheme]["gamma_fit"], model, f"compare {scheme}")
    row = rows.get("ancilla")
    if row is None:
        return failures + ["compare: ancilla row missing; the criterion-5 gap is hidden"], None
    closed = expected["ancilla_closed_form"]
    if abs(row["gamma_model"] - closed) > 1e-6 * closed:
        failures.append(f"compare: ancilla model rate {row['gamma_model']:.6g} is not "
                        f"the closed form gamma/(1+C) = {closed:.6g}")
    oracle = expected["ancilla_oracle"]
    failures += check_rate(row["gamma_fit"], oracle, "compare ancilla vs oracle",
                           rtol=ANCILLA_RTOL)
    report = {
        "ancilla_t1_fit_us": 1.0 / row["gamma_fit"],
        "ancilla_t1_closed_form_us": 1.0 / closed,
        "ancilla_t1_oracle_us": 1.0 / oracle,
    }
    return failures, report


def check_ensemble(times, mean_pe, sem_pe, gamma, limit=ENSEMBLE_SEM_LIMIT):
    """Criterion 6: zero gap at t = 0, mean within `limit` SEM of exp(-gamma t)."""
    times = np.asarray(times, dtype=float)
    gap = np.abs(np.asarray(mean_pe, dtype=float) - np.exp(-gamma * times))
    sem = np.asarray(sem_pe, dtype=float)
    failures = []
    if times[0] != 0.0 or gap[0] != 0.0:
        failures.append(f"ensemble: gap at t={times[0]:g} is {gap[0]:.3e}, not 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(gap[1:] == 0.0, 0.0, gap[1:] / sem[1:])
    bad = ~(ratio <= limit)
    if bad.any():
        k = int(np.argmax(bad))
        failures.append(f"ensemble: mean off exp(-gamma t) by {ratio[k]:.2f} SEM "
                        f"at t={times[k + 1]:g} (limit {limit:g})")
    return failures


def check_record_rows(n_rows, expected, what):
    if n_rows == expected:
        return []
    return [f"{what}: {n_rows} data rows, expected {expected}"]


def check_model_metadata(meta, what):
    failures = []
    if not meta.get("epochs_run", 0) >= 1:
        failures.append(f"{what}: epochs_run {meta.get('epochs_run')!r} < 1")
    r = meta.get("test_r", "missing")
    if r is not None and not (isinstance(r, (int, float)) and math.isfinite(r)):
        failures.append(f"{what}: test_r {r!r} is neither finite nor None")
    return failures
