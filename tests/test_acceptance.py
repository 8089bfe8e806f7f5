"""Acceptance suite: one test per acceptance criterion, at the stated
tolerances and desk scale.  Each test prints a summary line with the measured
quantities; run with ``pytest tests/test_acceptance.py -v -s``.

Criterion 1 holds the gauge integrator against two other routes: the
propagator route (``zakai_flow``), which shares the gauge cell kernel and so
agrees with it to machine precision, and the projected route
(``projected_filter_trajectory``), an RK4 solve of the nonlinear, normalized
filter equation in Wong-Zakai form that shares no code with the gauge kernel.
The projected route meets the 1e-5 budget with margin (about 3.5e-9 at
dt = 1e-3) and its gap to the gauge route shrinks about 4x per halving of dt.

The explicit-Euler route is not part of criterion 1: it is a diagnostic of
strong order 1/2 whose gap to the gauge route sits near 7.7e-4 at dt = 1e-3 on
this path.  Its halving ratio on this one path is 2.43, but that is a single
draw: over 100 fresh paths the mean gap falls only by a factor of about 1.25
when dt halves, as sqrt(dt) scaling predicts.
"""

import math

import numpy as np
import pytest

import wonhamlab as wl
from conftest import batch_flows, gauge_cell
from wonhamlab.filters import split_rate_matrix
from wonhamlab.sensitivity import (
    derivative_from_flow,
    second_derivative_from_flow,
    smoothing_from_flow,
)

SEED = 20260810


@pytest.fixture(scope="module")
def ref_model():
    return wl.FilterModel.from_raw([0.5, 0.5], [[-1.0, 1.0], [1.0, -1.0]], [0.0, 1.0])


@pytest.fixture(scope="module")
def template_pair(ref_model):
    approx = wl.FilterModel.from_raw([0.3, 0.7], [[-1.3, 1.3], [0.8, -0.8]], [0.1, 1.15])
    return wl.ModelPair(true_model=ref_model, approx_model=approx)


@pytest.fixture(scope="module")
def allowance(ref_model):
    grid = wl.TimeGrid(1.0, 1e-3)
    return 10.0 * wl.measure_integrator_tolerance(ref_model, grid, SEED)


# --- criterion 1: cross-route filter agreement ------------------------------


@pytest.fixture(scope="module")
def cross_route_gaps(ref_model):
    """Pairwise endpoint gaps of the three routes at dt = 1e-3 and 5e-4."""
    fine = wl.TimeGrid(1.0, 5e-4)
    sig, noise = wl.spawn_generators(SEED, 2)
    path = wl.simulate_signal(ref_model.initial, ref_model.generator, fine, sig)
    obs_fine = wl.simulate_observations(path, ref_model.observation, fine, noise)
    gaps = {}
    for dt in (1e-3, 5e-4):
        if dt == 5e-4:
            obs = obs_fine
        else:
            obs = wl.ObservationPath(obs_fine.increments.reshape(-1, 2).sum(axis=1),
                                     wl.TimeGrid(1.0, dt))
        gauge = wl.filter_trajectory(ref_model.initial, ref_model.generator,
                                     ref_model.observation, obs).values[-1]
        flow = wl.zakai_flow(0.0, 1.0, obs, ref_model.generator, ref_model.observation)
        zakai = wl.normalize(flow.apply(ref_model.initial))
        projected = wl.projected_filter_trajectory(ref_model.initial, ref_model.generator,
                                                   ref_model.observation, obs)[-1]
        gaps[("gauge", "zakai", dt)] = float(np.abs(gauge - zakai).sum())
        gaps[("gauge", "projected", dt)] = float(np.abs(gauge - projected).sum())
        gaps[("zakai", "projected", dt)] = float(np.abs(zakai - projected).sum())
    return gaps


@pytest.mark.parametrize("pair_names", [("gauge", "zakai"), ("gauge", "projected"), ("zakai", "projected")])
def test_c1_cross_route_agreement(cross_route_gaps, pair_names):
    a, b = pair_names
    gap = cross_route_gaps[(a, b, 1e-3)]
    ok = gap <= 1e-5
    print(f"ACCEPTANCE 1 cross-route {a} vs {b}: l1 gap at t=1, dt=1e-3 is {gap:.3e} "
          f"(budget 1e-5) -> {'PASS' if ok else 'FAIL'}")
    assert ok


@pytest.mark.parametrize("pair_names", [("gauge", "zakai"), ("gauge", "projected"), ("zakai", "projected")])
def test_c1_cross_route_halving(cross_route_gaps, pair_names):
    a, b = pair_names
    coarse = cross_route_gaps[(a, b, 1e-3)]
    fine = cross_route_gaps[(a, b, 5e-4)]
    vacuous = coarse < 1e-12 and fine < 1e-12
    ok = vacuous or coarse / max(fine, 1e-300) >= 2.0
    print(f"ACCEPTANCE 1 halving {a} vs {b}: gap {coarse:.3e} -> {fine:.3e} "
          f"-> {'PASS (vacuous, routes identical)' if vacuous else 'PASS' if ok else 'FAIL'}")
    assert ok


# --- criterion 2: flow algebra ----------------------------------------------


def test_c2_flow_algebra(ref_model):
    grid = wl.TimeGrid(5.0, 1e-3)
    sig, noise = wl.spawn_generators(SEED + 1, 2)
    path = wl.simulate_signal(ref_model.initial, ref_model.generator, grid, sig)
    obs = wl.simulate_observations(path, ref_model.observation, grid, noise)

    stationary = wl.zakai_flow(1.0, 1.0, obs, ref_model.generator, ref_model.observation)
    assert np.array_equal(stationary.entries, np.eye(2))

    whole = wl.zakai_flow(0.0, 5.0, obs, ref_model.generator, ref_model.observation)
    worst_flow = 0.0
    rng = np.random.default_rng(2)
    for _ in range(5):
        r = round(float(rng.uniform(0.5, 4.5)), 3)
        first = wl.zakai_flow(0.0, r, obs, ref_model.generator, ref_model.observation)
        second = wl.zakai_flow(r, 5.0, obs, ref_model.generator, ref_model.observation)
        product = wl.compose_flows(second, first)
        gap = np.abs(product.dense() - whole.dense()).max() / np.abs(whole.dense()).max()
        worst_flow = max(worst_flow, gap)

    worst_semi = 0.0
    mu = wl.validate_simplex([0.35, 0.65])
    for r in (1.25, 2.5, 3.75):
        inner = wl.filter_semiflow(mu, 0.0, r, obs, ref_model.generator, ref_model.observation)
        outer = wl.filter_semiflow(inner, r, 5.0, obs, ref_model.generator, ref_model.observation)
        direct = wl.filter_semiflow(mu, 0.0, 5.0, obs, ref_model.generator, ref_model.observation)
        worst_semi = max(worst_semi, float(np.abs(outer - direct).sum()))

    ok = worst_flow <= 1e-6 and worst_semi <= 1e-6
    print(f"ACCEPTANCE 2 flow algebra: identity exact, composition {worst_flow:.3e} "
          f"(budget 1e-6), semiflow {worst_semi:.3e} (budget 1e-6) -> {'PASS' if ok else 'FAIL'}")
    assert ok


# --- criterion 3: smoothing estimate ----------------------------------------


def test_c3_smoothing_estimate(ref_model):
    beta = wl.mixing_rate(ref_model.generator)
    total_violations = 0
    worst_margin = -np.inf
    for t_end in (0.5, 1.0, 2.0, 4.0):
        grid = wl.TimeGrid(t_end, 1e-3)
        increments = wl.simulate_increments_batch(
            ref_model.initial, ref_model.generator, ref_model.observation, grid,
            SEED + 3, 1000,
        )
        flows = batch_flows(ref_model, increments, grid.dt)
        rho = smoothing_from_flow(flows, ref_model.initial)
        spread = np.abs(rho[:, :, :, None] - rho[:, :, None, :]).max(axis=(1, 2, 3))
        margin = spread - math.exp(-beta * t_end)
        total_violations += int((margin > 1e-6).sum())
        worst_margin = max(worst_margin, float(margin.max()))
    ok = total_violations == 0
    print(f"ACCEPTANCE 3 smoothing estimate: 1000 paths x 4 horizons, "
          f"violations {total_violations}, worst margin {worst_margin:.3e} "
          f"-> {'PASS' if ok else 'FAIL'}")
    assert ok


# --- criterion 4: derivative audit ------------------------------------------


def test_c4_derivative_audit(template_pair, ref_model):
    spec = wl.ExperimentSpec(
        pair=template_pair, grid=wl.TimeGrid(1.0, 1e-3), n_trials=100,
        master_seed=SEED + 4, checkpoints=(0.0, 1.0),
    )
    report = wl.run_derivative_audit(spec)
    gaps = {row["comparison"]: row["max_relative_gap"] for row in report.table}

    # independent restarted-filter differences on a few fresh paths
    worst_restart = 0.0
    for seed in range(3):
        grid = wl.TimeGrid(1.0, 1e-3)
        sig, noise = wl.spawn_generators(SEED + 40 + seed, 2)
        path = wl.simulate_signal(ref_model.initial, ref_model.generator, grid, sig)
        obs = wl.simulate_observations(path, ref_model.observation, grid, noise)
        v = wl.validate_tangent([0.5, -0.5])
        flow_route = wl.derivative_flow(ref_model.initial, v, 0.0, 1.0, obs,
                                        ref_model.generator, ref_model.observation)
        eps = 1e-6
        fd = (
            wl.filter_semiflow(ref_model.initial + eps * v, 0.0, 1.0, obs,
                               ref_model.generator, ref_model.observation)
            - wl.filter_semiflow(ref_model.initial - eps * v, 0.0, 1.0, obs,
                                 ref_model.generator, ref_model.observation)
        ) / (2 * eps)
        worst_restart = max(
            worst_restart, float(np.abs(flow_route - fd).sum() / np.abs(fd).sum())
        )

    ok = (
        gaps["flow_vs_smoothing"] <= 1e-4
        and gaps["flow_vs_fd"] <= 1e-4
        and gaps["smoothing_vs_fd"] <= 1e-4
        and worst_restart <= 1e-4
        and gaps["second_flow_vs_fd"] <= 1e-2
        and report.supplementary["max_tangency_sum"] <= 1e-8
        and report.violations == 0
    )
    print(f"ACCEPTANCE 4 derivative audit: first-derivative route gaps {gaps}, "
          f"restarted-filter fd {worst_restart:.3e}, "
          f"tangency {report.supplementary['max_tangency_sum']:.3e} "
          f"-> {'PASS' if ok else 'FAIL'}")
    assert ok


# --- criterion 5: derivative and gap bounds pathwise -------------------------


def test_c5_pathwise_bounds(ref_model, allowance):
    grid = wl.TimeGrid(1.0, 1e-3)
    increments = wl.simulate_increments_batch(
        ref_model.initial, ref_model.generator, ref_model.observation, grid, SEED + 5, 500
    )
    flows = batch_flows(ref_model, increments, grid.dt)
    beta = wl.mixing_rate(ref_model.generator)
    rng = np.random.default_rng(SEED + 5)

    first_violations = 0
    lipschitz_violations = 0
    for _ in range(20):
        mu = rng.dirichlet(np.full(2, 2.0), size=500)
        z = rng.standard_normal((500, 2))
        v = z - z.mean(axis=1, keepdims=True)
        actual = np.abs(derivative_from_flow(flows, mu, v)).sum(axis=1)
        bound = (np.abs(v) / mu).sum(axis=1) * math.exp(-beta)
        first_violations += int((actual > bound + allowance).sum())

        mu_2 = rng.dirichlet(np.full(2, 2.0), size=500)
        img_1 = np.einsum("mij,mj->mi", flows, mu)
        img_2 = np.einsum("mij,mj->mi", flows, mu_2)
        img_1 /= img_1.sum(axis=1, keepdims=True)
        img_2 /= img_2.sum(axis=1, keepdims=True)
        gap = np.abs(img_2 - img_1).sum(axis=1)
        prefactor = np.maximum(1.0 / mu, 1.0 / mu_2).max(axis=1)
        lip_bound = prefactor * np.abs(mu_2 - mu).sum(axis=1) * math.exp(-beta)
        lipschitz_violations += int((gap > lip_bound + allowance).sum())

    second_violations = 0
    for _ in range(2):
        mu = rng.dirichlet(np.full(2, 2.0), size=500)
        z_v = rng.standard_normal((500, 2))
        z_w = rng.standard_normal((500, 2))
        v = z_v - z_v.mean(axis=1, keepdims=True)
        w = z_w - z_w.mean(axis=1, keepdims=True)
        gap = np.abs(
            second_derivative_from_flow(flows, mu, v) - second_derivative_from_flow(flows, mu, w)
        ).sum(axis=1)
        bound = (
            2.0 * (np.abs(v + w) / mu).sum(axis=1) * (np.abs(v - w) / mu).sum(axis=1)
            * math.exp(-beta)
        )
        second_violations += int((gap > bound + allowance).sum())

    ok = first_violations == 0 and lipschitz_violations == 0 and second_violations == 0
    print(f"ACCEPTANCE 5 pathwise bounds: 1e4 first-derivative draws "
          f"({first_violations} violations), 1e4 two-start draws "
          f"({lipschitz_violations}), 1e3 second-derivative draws ({second_violations}); "
          f"allowance {allowance:.2e} -> {'PASS' if ok else 'FAIL'}")
    assert ok


# --- criterion 6: inverse-moment bound ---------------------------------------


def test_c6_inverse_moment(ref_model):
    pair = wl.ModelPair(true_model=ref_model, approx_model=ref_model)
    spec = wl.ExperimentSpec(
        pair=pair, grid=wl.TimeGrid(20.0, 1e-3), n_trials=400, master_seed=SEED + 6,
        checkpoints=(0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0),
    )
    report = wl.run_inverse_moment_experiment(spec)
    peaks = [(row["time"], row["mean"] + row["half_width"]) for row in report.table]
    ok = (
        report.constants["bound"] == pytest.approx(6.0)
        and all(upper <= 6.0 for _, upper in peaks)
        and report.violations == 0
    )
    print(f"ACCEPTANCE 6 inverse moment: bound {report.constants['bound']}, "
          f"estimate+3sigma per checkpoint {[(t, round(v, 3)) for t, v in peaks]} "
          f"-> {'PASS' if ok else 'FAIL'}")
    assert ok


# --- criterion 7: reciprocal-power moment bound ------------------------------


def test_c7_reciprocal_power_moments(ref_model):
    grid = wl.TimeGrid(1.0, 1e-3)
    m = 1000
    increments = wl.simulate_increments_batch(
        ref_model.initial, ref_model.generator, ref_model.observation, grid, SEED + 7, m
    )
    s_diag, t_off = split_rate_matrix(ref_model.generator.entries)
    levels = ref_model.observation.levels
    state = np.broadcast_to(ref_model.initial, (m, 2)).copy()
    snapshots = {}
    for k in range(grid.n_steps):
        state = gauge_cell(state, increments[:, k], grid.dt, s_diag, t_off, levels)
        state /= state.sum(axis=1, keepdims=True)
        if k + 1 in (500, 1000):
            snapshots[(k + 1) * grid.dt] = state.copy()

    summary = []
    for t, snap in sorted(snapshots.items()):
        for power in (1, 2):
            for idx in (0, 1):
                samples = snap[:, idx] ** (-float(power))
                bound = wl.component_inverse_moment_bound(
                    ref_model.initial, ref_model.generator, ref_model.observation,
                    state=idx, power=power, t=t,
                )
                hw = 3.0 * samples.std(ddof=1) / math.sqrt(m)
                summary.append((t, power, idx, samples.mean(), bound + hw))
    worst = max(mean / limit for _, _, _, mean, limit in summary)
    ok = worst <= 1.0
    print(f"ACCEPTANCE 7 reciprocal-power moments: k in {{1,2}}, t in {{0.5,1}}, "
          f"worst estimate/(bound+3sigma) ratio {worst:.3f} -> {'PASS' if ok else 'FAIL'}")
    assert ok


# --- criterion 8: uniform-in-time robustness bound ---------------------------


@pytest.mark.parametrize(
    "components",
    [("initial",), ("generator",), ("levels",), ("initial", "generator", "levels")],
    ids=["initial", "generator", "levels", "joint"],
)
def test_c8_robustness_bound_sweeps(template_pair, components):
    spec = wl.ExperimentSpec(
        pair=template_pair,
        grid=wl.TimeGrid(10.0, 1e-3),
        n_trials=250,
        master_seed=SEED + 8,
        checkpoints=(0.0, 0.5, 1.0, 2.0, 5.0, 10.0),
        sweep_sizes=(0.2, 0.1, 0.05, 0.025),
        sweep_components=components,
    )
    report = wl.run_convergence_sweep(spec)
    floor = report.table[0]["sup_error"]
    allowance = report.constants["allowance"]
    sups = [(row["size"], row["sup_error"], row["bound"]) for row in report.table]
    ok = (
        report.violations == 0
        and floor <= allowance
        and report.supplementary["final_entry_ok"]
        and all(row["checkpoint_violations"] == 0 for row in report.table)
    )
    print(f"ACCEPTANCE 8 robustness sweep {components}: floor {floor:.2e} "
          f"(allowance {allowance:.2e}), (size, sup, bound) {sups}, "
          f"violations {report.violations} -> {'PASS' if ok else 'FAIL'}")
    assert ok


# --- criterion 9: determinism -------------------------------------------------


def test_c9_determinism(template_pair):
    spec = wl.ExperimentSpec(
        pair=template_pair, grid=wl.TimeGrid(2.0, 1e-3), n_trials=120,
        master_seed=SEED + 9, checkpoints=(0.0, 1.0, 2.0),
    )
    first = wl.run_robustness_experiment(spec).to_json()
    second = wl.run_robustness_experiment(spec).to_json()
    ok = first == second
    print(f"ACCEPTANCE 9 determinism: identical seeds give byte-identical reports "
          f"-> {'PASS' if ok else 'FAIL'}")
    assert ok
