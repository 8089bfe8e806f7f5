import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

import wonhamlab as wl
import wonhamlab.experiments as experiments
from conftest import lockstep_stacks


@pytest.fixture(scope="module")
def small_pair(ref_model):
    approx = wl.FilterModel.from_raw([0.45, 0.55], [[-1.1, 1.1], [0.9, -0.9]], [0.0, 1.05])
    return wl.ModelPair(true_model=ref_model, approx_model=approx)


def random_pair(d, seed=0):
    """Two random mixing models of d states."""
    rng = np.random.default_rng(seed)

    def model():
        rates = rng.uniform(0.5, 2.0, size=(d, d))
        np.fill_diagonal(rates, 0.0)
        np.fill_diagonal(rates, -rates.sum(axis=1))
        return wl.FilterModel.from_raw(rng.dirichlet(np.ones(d)), rates, rng.uniform(-1.0, 1.0, size=d))

    return wl.ModelPair(true_model=model(), approx_model=model())


def record_simulations(monkeypatch):
    """Record the grid and trial count of every batch simulation the experiments module makes."""
    calls = []
    real = experiments.simulate_increments_batch

    def recorded(initial, generator, observation, grid, master_seed, n_trials):
        calls.append((grid, n_trials))
        return real(initial, generator, observation, grid, master_seed, n_trials)

    monkeypatch.setattr(experiments, "simulate_increments_batch", recorded)
    return calls


def make_spec(pair, t_end=5.0, n_trials=120, seed=314, checkpoints=(0.0, 0.5, 1.0, 2.0, 5.0),
              **kwargs):
    return wl.ExperimentSpec(
        pair=pair,
        grid=wl.TimeGrid(t_end, 1e-3),
        n_trials=n_trials,
        master_seed=seed,
        checkpoints=checkpoints,
        **kwargs,
    )


class TestExperimentSpec:
    def test_rejects_too_few_trials(self, small_pair):
        with pytest.raises(wl.InsufficientTrialsError):
            make_spec(small_pair, n_trials=50)

    def test_rejects_off_grid_checkpoints(self, small_pair):
        with pytest.raises(wl.GridMismatchError):
            make_spec(small_pair, checkpoints=(0.0, 0.50003))

    def test_warns_on_coarse_grid(self, small_pair):
        with pytest.warns(UserWarning):
            wl.ExperimentSpec(
                pair=small_pair, grid=wl.TimeGrid(1.0, 0.1), n_trials=100,
                master_seed=1, checkpoints=(0.0, 1.0),
            )

    @pytest.mark.parametrize("checkpoints", [(0.0, 1.0, 1.0), (0.0, 1.0, 1.0 + 1e-10)])
    def test_rejects_checkpoints_sharing_a_node(self, small_pair, checkpoints):
        # Two checkpoints on one node would leave a recorded column unwritten.
        with pytest.raises(wl.ConfigError):
            make_spec(small_pair, t_end=2.0, checkpoints=checkpoints)

    def test_drops_checkpoints_beyond_horizon(self, small_pair):
        spec = make_spec(small_pair, t_end=2.0, checkpoints=(0.0, 1.0, 2.0, 5.0, 10.0))
        assert spec.checkpoints == (0.0, 1.0, 2.0)

    @pytest.mark.parametrize("checkpoints", [(0.0, math.nan), (math.nan,), (0.0, -math.inf),
                                             (0.0, 1.0, math.inf), (0.0, 10**400)])
    def test_rejects_non_finite_checkpoints(self, small_pair, checkpoints):
        with pytest.raises(wl.ConfigError, match="finite"):
            make_spec(small_pair, checkpoints=checkpoints)

    def test_rejects_bad_sweep(self, small_pair):
        with pytest.raises(wl.ConfigError):
            make_spec(small_pair, sweep_sizes=(0.1, 0.2))
        with pytest.raises(wl.ConfigError):
            make_spec(small_pair, sweep_components=("initial", "noise"))

    @pytest.mark.parametrize("field, value", [("seed", -1), ("seed", 1.5), ("seed", True),
                                              ("n_trials", 150.5), ("sweep_sizes", ())])
    def test_rejects_unusable_seed_trials_and_sweep(self, small_pair, field, value):
        # Unchecked, each fails later and untyped: a numpy error or an IndexError.
        with pytest.raises(wl.ConfigError):
            make_spec(small_pair, **{field: value})

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_rejects_strict_tolerance_that_is_not_a_bool(self, small_pair, value):
        # Unchecked, the string "false" is truthy and silently drops the integrator allowance.
        with pytest.raises(wl.ConfigError, match="strict_tolerance"):
            make_spec(small_pair, strict_tolerance=value)

    @pytest.mark.parametrize("value", [True, False, np.True_, np.False_])
    def test_accepts_bool_strict_tolerance(self, small_pair, value):
        assert make_spec(small_pair, strict_tolerance=value).strict_tolerance == value

    def test_whole_numbers_are_stored_as_a_files_floats(self, small_pair):
        """An int grid and int checkpoints are stored, and echoed in a report, as
        the floats a YAML file gives; a components list is stored as a tuple."""
        spec = wl.ExperimentSpec(pair=small_pair, grid=wl.TimeGrid(2, 1e-3), n_trials=100, master_seed=1,
                                 checkpoints=(0, 1, 2), sweep_components=["initial"])
        twin = make_spec(small_pair, t_end=2.0, n_trials=100, seed=1, checkpoints=(0.0, 1.0, 2.0),
                         sweep_components=("initial",))
        assert all(type(x) is float for x in (spec.grid.t_end, spec.grid.dt, *spec.checkpoints))
        assert spec.sweep_components == ("initial",)
        echo = [json.dumps(experiments.spec_to_mapping(s), sort_keys=True) for s in (spec, twin)]
        assert echo[0] == echo[1]


class TestInterpolatePair:
    # Exact equality: the campaign shares a filter between two models only when
    # their arrays are equal byte for byte.
    @staticmethod
    def parts(model):
        return model.initial, model.generator.entries, model.observation.levels

    def test_zero_size_recovers_truth(self, small_pair):
        flat = wl.interpolate_pair(small_pair, 0.0)
        for got, want in zip(self.parts(flat.approx_model), self.parts(small_pair.true_model)):
            assert np.array_equal(got, want)

    def test_partial_components(self, small_pair):
        moved = wl.interpolate_pair(small_pair, 1.0, components=("initial",))
        got, truth, approx = (self.parts(m) for m in (moved.approx_model, small_pair.true_model,
                                                      small_pair.approx_model))
        assert np.array_equal(got[0], approx[0])
        assert np.array_equal(got[1], truth[1])
        assert np.array_equal(got[2], truth[2])

    @pytest.mark.parametrize("components", [(), ("rates",), ("initial", "rates"), (["initial"],),
                                            (1, "noise")])
    def test_rejects_unknown_or_no_components(self, small_pair, components):
        # Unchecked, no component or an unknown name left the approximate model
        # the truth, so the sweep compared the truth with itself and could not fail;
        # a nested list or a mixed list raised an untyped TypeError.
        with pytest.raises(wl.ConfigError, match="sweep components"):
            wl.interpolate_pair(small_pair, 0.5, components)
        with pytest.raises(wl.ConfigError, match="sweep components"):
            make_spec(small_pair, sweep_sizes=(0.2, 0.1), sweep_components=components)

    def test_interpolants_remain_mixing(self, small_pair):
        for size in (0.25, 0.5, 0.75):
            pair = wl.interpolate_pair(small_pair, size)
            pair.require_mixing()


class TestRobustnessExperiment:
    def test_zero_perturbation_floor(self, ref_model):
        pair = wl.ModelPair(true_model=ref_model, approx_model=ref_model)
        report = wl.run_robustness_experiment(make_spec(pair, t_end=2.0, checkpoints=(0.0, 1.0, 2.0)))
        assert report.violations == 0
        assert report.supplementary["sup_estimate"] == 0.0
        for row in report.table:
            assert row["mean_sq_error"] == 0.0

    def test_perturbed_run_stays_below_bound(self, small_pair):
        report = wl.run_robustness_experiment(make_spec(small_pair))
        assert report.violations == 0
        assert report.supplementary["l1_dominance_violations"] == 0
        assert report.supplementary["slack_ratio"] > 1.0
        # One composition of the bound: the report's is the public one, exactly.
        assert report.constants["bound"] == wl.robustness_bound(small_pair)
        assert not report.supplementary["escalated"]

    def test_initial_condition_only_error_decays(self, ref_model):
        approx = wl.FilterModel.from_raw([0.3, 0.7], [[-1.0, 1.0], [1.0, -1.0]], [0.0, 1.0])
        pair = wl.ModelPair(true_model=ref_model, approx_model=approx)
        spec = make_spec(pair, t_end=10.0, n_trials=150,
                         checkpoints=(0.0, 0.5, 1.0, 2.0, 5.0, 10.0))
        report = wl.run_robustness_experiment(spec)
        rows = {row["time"]: row for row in report.table}
        c1 = report.constants["c1"]
        gap = np.abs(approx.initial - ref_model.initial).sum()
        assert rows[10.0]["mean_sq_error"] + rows[10.0]["half_width"] <= c1 * gap
        assert rows[10.0]["mean_sq_error"] < rows[0.5]["mean_sq_error"]
        assert report.violations == 0

    @pytest.mark.parametrize("name", ["robustness", "forgetting", "inverse-moment", "convergence-sweep"])
    def test_determinism(self, small_pair, name):
        spec = make_spec(small_pair, t_end=2.0, n_trials=100, checkpoints=(0.0, 1.0, 2.0),
                         sweep_sizes=(0.2, 0.1))
        first = wl.run_experiment(name, spec)
        second = wl.run_experiment(name, spec)
        assert first.to_json() == second.to_json()


def _straddle(row, key):
    """A bound the row's mean stays under while mean + half width exceeds it."""
    assert row["half_width"] > 0.0
    return row[key] + 0.5 * row["half_width"]


def _force_robustness(monkeypatch, report):
    target = _straddle(report.table[-1], "mean_sq_error")
    c1 = target / report.constants["gap_initial"]
    monkeypatch.setattr(wl.models, "robustness_constants", lambda pair: wl.RobustnessConstants(c1, 0.0, 0.0))


def _force_forgetting(monkeypatch, report):
    row = report.table[-1]
    beta = -math.log(_straddle(row, "mean_gap") / report.constants["prefactor"]) / row["time"]
    monkeypatch.setattr(experiments, "mixing_rate", lambda generator: beta)


def _force_inverse_moment(monkeypatch, report):
    target = _straddle(report.table[-1], "mean")
    monkeypatch.setattr(experiments, "inverse_moment_constant", lambda *args: target)


FORCE_STRADDLE = {
    "robustness": _force_robustness,
    "forgetting": _force_forgetting,
    "inverse-moment": _force_inverse_moment,
}


@pytest.mark.parametrize("name", list(FORCE_STRADDLE))
def test_straddled_bound_escalates_once(small_pair, monkeypatch, name):
    spec = make_spec(small_pair, t_end=2.0, n_trials=100, checkpoints=(0.0, 1.0, 2.0),
                     strict_tolerance=True)
    first = wl.run_experiment(name, spec)
    assert not first.supplementary["escalated"]
    FORCE_STRADDLE[name](monkeypatch, first)
    calls = record_simulations(monkeypatch)
    report = wl.run_experiment(name, spec)
    assert report.supplementary["escalated"]
    assert report.n_trials == 4 * spec.n_trials
    assert [n for _, n in calls] == [spec.n_trials, 4 * spec.n_trials]


class TestForgettingExperiment:
    def test_identical_initial_laws(self, ref_model):
        pair = wl.ModelPair(true_model=ref_model, approx_model=ref_model)
        report = wl.run_forgetting_experiment(make_spec(pair, t_end=2.0, checkpoints=(0.0, 2.0)))
        assert report.violations == 0
        for row in report.table:
            assert row["mean_gap"] == 0.0

    @pytest.mark.parametrize("same_laws, t_end", [(True, 3.0), (False, 1.0)])
    def test_rate_passes_when_no_fit_is_possible(self, small_pair, same_laws, t_end):
        """No gap to fit (identical initial laws), or no window node (t_end < 2)."""
        truth, approx = small_pair.true_model, small_pair.approx_model
        if same_laws:
            approx = dataclasses.replace(approx, initial=truth.initial)
        pair = wl.ModelPair(true_model=truth, approx_model=approx)
        report = wl.run_forgetting_experiment(make_spec(pair, t_end=t_end, n_trials=100,
                                                        checkpoints=(0.0, 1.0)))
        assert math.isnan(report.supplementary["fitted_rate"])
        assert report.supplementary["rate_within_bound"]

    def test_prefactor_is_the_lipschitz_bound(self, small_pair):
        """The prefactor is ``lipschitz_bound`` at zero elapsed time, bit for bit,
        and equals its closed form max(1/mu_1, 1/mu_2) * |mu_2 - mu_1|_1."""
        truth, approx = small_pair.true_model, small_pair.approx_model
        report = wl.run_forgetting_experiment(make_spec(small_pair, t_end=1.0, n_trials=100,
                                                        checkpoints=(0.0, 1.0)))
        prefactor = report.constants["prefactor"]
        assert prefactor == wl.lipschitz_bound(truth.initial, approx.initial, 0.0, 0.0, approx.generator)
        closed_form = float(np.maximum(1.0 / truth.initial, 1.0 / approx.initial).max()
                            * np.abs(approx.initial - truth.initial).sum())
        assert prefactor == closed_form

    def test_thousand_paths_no_violations_and_rate(self, ref_model):
        approx = wl.FilterModel.from_raw([0.2, 0.8], [[-1.0, 1.0], [1.0, -1.0]], [0.0, 1.0])
        pair = wl.ModelPair(true_model=ref_model, approx_model=approx)
        spec = make_spec(pair, t_end=10.0, n_trials=1000, seed=777,
                         checkpoints=(0.0, 1.0, 5.0, 10.0))
        report = wl.run_forgetting_experiment(spec)
        assert report.supplementary["pathwise_violations"] == 0
        assert report.violations == 0
        beta = report.constants["beta"]
        assert report.supplementary["fitted_rate"] <= -beta + 0.1

    # 1000 and 1001 nodes end on a short block; 1024 nodes fill exactly 64 blocks
    # of 16.  d = 9 has enough l1 terms for numpy to sum them pairwise; a
    # repeated model reads its gaps through an index list.
    @pytest.mark.parametrize("t_end, d, repeated", [
        pytest.param(0.999, 2, False, id="0.999"), pytest.param(1.0, 2, False, id="1.0"),
        pytest.param(1.023, 2, False, id="1.023"), pytest.param(1.023, 3, False, id="1.023-d3"),
        pytest.param(1.0, 9, False, id="1.0-d9"), pytest.param(0.999, 3, True, id="0.999-d3-repeated"),
        pytest.param(1.023, 9, True, id="1.023-d9-repeated"),
    ])
    def test_blocked_excursion_count_matches_every_node(self, small_pair, t_end, d, repeated):
        """The count taken once per block of nodes equals a count taken node
        by node on the lockstep stack.  A bound at an exact gap of each node,
        and one an ulp below it, would each move the count if that gap were
        an ulp off: the blocked l1 is the node's ``sum(axis=-1)`` bit for bit."""
        pair = small_pair if d == 2 else random_pair(d)
        truth, approx = pair.true_model, pair.approx_model
        spec = make_spec(pair, t_end=t_end, n_trials=100, checkpoints=(0.0, 0.5))
        models = [dataclasses.replace(approx, initial=truth.initial), approx] + [approx] * repeated
        filters = [(m.initial, m.generator, m.observation) for m in models[:2]]
        increments = wl.simulate_increments_batch(truth.initial, truth.generator, truth.observation,
                                                  spec.grid, spec.master_seed, spec.n_trials)
        gaps = np.array([np.abs(states[1] - states[0]).sum(axis=-1)
                         for states in lockstep_stacks(filters, increments, spec.grid.dt)])
        exact = np.sort(gaps, axis=1)[:, spec.n_trials // 2]
        # bounds near each node's median gap, so about half the pairs exceed them
        for bound in (np.median(gaps, axis=1), exact, np.nextafter(exact, -np.inf)):
            camp = experiments._campaign(spec, models, spec.n_trials, bound)
            assert camp["excursions"] == (len(models) - 1) * int((gaps > bound[:, None]).sum()) > 0

    @pytest.mark.parametrize("repeated", [False, True], ids=["d9", "d9-repeated"])
    def test_excursions_in_the_rounding_band_are_recounted(self, repeated):
        """At d = 9 a node's l1 terms summed in state order and by ``sum(axis=-1)``
        differ in their last bits at some (trial, node) pairs.  Bounds on both
        sides of such a sum, all inside the band, would each move an in-order
        count; the campaign's count is the node-by-node ``sum(axis=-1)`` count at
        each of them, so the pairs in the band were recounted."""
        d = 9
        pair = random_pair(d)
        truth, approx = pair.true_model, pair.approx_model
        spec = make_spec(pair, t_end=0.2, n_trials=100, checkpoints=(0.0, 0.1))
        models = [dataclasses.replace(approx, initial=truth.initial), approx] + [approx] * repeated
        filters = [(m.initial, m.generator, m.observation) for m in models[:2]]
        increments = wl.simulate_increments_batch(truth.initial, truth.generator, truth.observation,
                                                  spec.grid, spec.master_seed, spec.n_trials)
        terms = np.array([np.abs(states[1] - states[0])
                          for states in lockstep_stacks(filters, increments, spec.grid.dt)])
        exact = terms.sum(axis=-1)
        in_order = terms[..., 0].copy()
        for j in range(1, d):
            in_order += terms[..., j]
        k, p = np.argwhere(in_order != exact)[0]
        sums = (exact[k, p], in_order[k, p])
        moved = 0
        for at in (*sums, np.nextafter(min(sums), -np.inf), np.nextafter(max(sums), np.inf)):
            assert abs(in_order[k, p] - at) <= 2 * d * 2.0 ** -52 * in_order[k, p]
            bound = np.median(exact, axis=1)
            bound[k] = at
            expected = (len(models) - 1) * int((exact > bound[:, None]).sum())
            moved += expected != (len(models) - 1) * int((in_order > bound[:, None]).sum())
            assert experiments._campaign(spec, models, spec.n_trials, bound)["excursions"] == expected
        assert moved > 0

    def test_nan_and_inf_gaps_count_as_the_node_sum_does(self, small_pair, monkeypatch):
        """A NaN weight in the later filter and an inf weight in the first give a
        NaN and an inf l1 gap; each is counted as the node-by-node
        ``sum(axis=-1)`` count counts it (NaN is not within its bound)."""
        truth, approx = small_pair.true_model, small_pair.approx_model
        spec = make_spec(small_pair, t_end=0.1, n_trials=100, checkpoints=(0.0, 0.1))
        models = [dataclasses.replace(approx, initial=truth.initial), approx]
        poison = {(3, 5, 2): np.nan, (20, 7, 0): np.inf}  # (node, trial, flat state) -> weight
        seen = []
        real = experiments._lockstep

        def poisoned(filters, increments, dt):
            for block in real(filters, increments, dt):
                block = block.copy()
                for (k, p, i), value in poison.items():
                    if len(seen) <= k < len(seen) + len(block):
                        block[k - len(seen), p, i] = value
                seen.extend(block)
                yield block

        monkeypatch.setattr(experiments, "_lockstep", poisoned)
        bound = np.full(spec.grid.n_steps + 1, 0.05)
        camp = experiments._campaign(spec, models, spec.n_trials, bound)
        stacks = np.array(seen).reshape(len(seen), spec.n_trials, 2, 2)
        gaps = np.abs(stacks[:, :, 1] - stacks[:, :, 0]).sum(axis=-1)
        assert np.isnan(gaps[3, 5]) and np.isinf(gaps[20, 7])
        assert camp["excursions"] == int((~(gaps <= bound[:, None])).sum()) > 2


class TestCampaign:
    def test_checkpoint_off_the_dense_grid(self, small_pair):
        """A checkpoint at 0.25 is node 250, between the dense nodes 200 and
        300.  Its columns are the lockstep stack's gaps and reciprocal smallest
        weight at node 250, bit for bit, and every array the campaign returns
        is C-contiguous: that layout fixes the summation order of the reports'
        means."""
        truth, approx = small_pair.true_model, small_pair.approx_model
        spec = make_spec(small_pair, t_end=0.5, n_trials=100, checkpoints=(0.0, 0.25, 0.5))
        dense = experiments._dense_nodes(spec.grid)
        assert 250 not in dense
        models = [truth, approx, dataclasses.replace(approx, initial=truth.initial)]
        filters = [(m.initial, m.generator, m.observation) for m in models]
        increments = wl.simulate_increments_batch(truth.initial, truth.generator, truth.observation,
                                                  spec.grid, spec.master_seed, spec.n_trials)
        stack = lockstep_stacks(filters, increments, spec.grid.dt)
        nodes = {k: states.copy() for k, states in enumerate(stack) if k in (200, 250, 300, 500)}
        camp = experiments._campaign(spec, models, spec.n_trials)
        for key, col, k in [("chk", 1, 250), ("dense", 2, 200), ("dense", 3, 300), ("chk", 2, 500)]:
            diff = nodes[k][1:] - nodes[k][0]
            np.testing.assert_array_equal(camp[f"sq_{key}"][..., col], (diff * diff).sum(axis=-1))
            np.testing.assert_array_equal(camp[f"l1_{key}"][..., col], np.abs(diff).sum(axis=-1))
        np.testing.assert_array_equal(camp["inv_min"][:, 1], 1.0 / nodes[250][0].min(axis=1))
        np.testing.assert_array_equal(camp["dense_times"], dense * spec.grid.dt)
        assert camp["sq_chk"].shape == (2, spec.n_trials, 3)
        assert camp["sq_dense"].shape == (2, spec.n_trials, len(dense))
        arrays = [value for value in camp.values() if isinstance(value, np.ndarray)]
        assert len(arrays) == 7 and all(a.flags.c_contiguous for a in arrays)


class TestInverseMomentExperiment:
    def test_reference_model_bound(self, ref_model):
        pair = wl.ModelPair(true_model=ref_model, approx_model=ref_model)
        spec = make_spec(pair, t_end=20.0, n_trials=300, seed=42,
                         checkpoints=(0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0))
        report = wl.run_inverse_moment_experiment(spec)
        assert report.constants["bound"] == pytest.approx(6.0)
        assert report.violations == 0
        rows = {row["time"]: row for row in report.table}
        assert rows[0.0]["mean"] == pytest.approx(2.0)
        assert rows[0.0]["half_width"] == 0.0
        for row in report.table:
            assert row["mean"] + row["half_width"] <= 6.0 + report.constants["allowance"]
        assert report.supplementary["stationarity"] is not None

    def test_near_boundary_initial_law_keeps_half_widths_finite(self):
        """A 1e-300 initial weight at d = 10 makes the t = 0 sample of each of 200
        trials 1 / min mu, about 8e299, and their mean rounds an ulp away.  The
        squared deviations from it would leave the double range; scaled by a power
        of two they do not, so both reports' half widths are finite and their JSON
        holds no Infinity."""
        def model(seed, tiny):
            rng = np.random.default_rng(seed)
            rates = rng.uniform(0.2, 1.5, size=(10, 10))
            np.fill_diagonal(rates, 0.0)
            np.fill_diagonal(rates, -rates.sum(axis=1))
            initial = rng.dirichlet(np.ones(10))
            if tiny:
                initial[0] = 1e-300
            levels = np.linspace(-2.0, 2.0, 10) + rng.normal(0.0, 0.05, size=10)
            return wl.FilterModel.from_raw(initial / initial.sum(), rates, levels)

        pair = wl.ModelPair(true_model=model(1, True), approx_model=model(2, False))
        spec = make_spec(pair, t_end=0.5, n_trials=200, seed=2026, checkpoints=(0.0, 0.5))

        def no_constants(name):
            raise ValueError(f"{name} in a report")

        robustness = wl.run_robustness_experiment(spec)
        inverse = wl.run_inverse_moment_experiment(spec)
        rows = robustness.supplementary["inverse_moment"] + inverse.table
        assert rows[0]["mean"] > 1e299
        assert all(math.isfinite(row["half_width"]) for row in rows)
        for report in (robustness, inverse):
            json.loads(report.to_json(), parse_constant=no_constants)


class TestConvergenceSweep:
    def test_requires_sweep_sizes(self, small_pair):
        with pytest.raises(wl.ConfigError):
            wl.run_convergence_sweep(make_spec(small_pair))

    def test_monotone_and_final_entry(self, small_pair):
        spec = make_spec(small_pair, t_end=2.0, n_trials=120, checkpoints=(0.0, 1.0, 2.0),
                         sweep_sizes=(0.2, 0.1, 0.05, 0.025))
        report = wl.run_convergence_sweep(spec)
        assert report.violations == 0
        sizes = [row["size"] for row in report.table]
        assert sizes == [0.0, 0.2, 0.1, 0.05, 0.025]
        assert report.table[0]["sup_error"] == 0.0  # zero-perturbation floor
        assert report.supplementary["final_entry_ok"]
        # halving the perturbation roughly halves the error; wide factor 3
        for ratio in report.supplementary["halving_ratios"]:
            assert ratio["error_ratio"] < 3.0 * 4.0
        for entry in report.table:
            pair = wl.interpolate_pair(small_pair, entry["size"], spec.sweep_components)
            assert entry["bound"] == wl.robustness_bound(pair)

    def test_size_zero_shares_the_truths_filter(self, small_pair, monkeypatch):
        stacks = []
        real = experiments._lockstep

        def counted(filters, increments, dt):
            stacks.append(len(filters))
            return real(filters, increments, dt)

        monkeypatch.setattr(experiments, "_lockstep", counted)
        spec = make_spec(small_pair, t_end=1.0, n_trials=100, checkpoints=(0.0, 0.5, 1.0),
                         sweep_sizes=(0.5, 0.1))
        report = wl.run_convergence_sweep(spec)
        assert stacks == [1 + len(spec.sweep_sizes)]
        floor = report.table[0]
        assert floor["size"] == 0.0
        assert floor["sup_error"] == floor["half_width"] == floor["bound"] == 0.0
        assert floor["checkpoint_violations"] == 0

    def test_one_simulation_matches_robustness_runs(self, small_pair, monkeypatch):
        spec = make_spec(small_pair, t_end=2.0, n_trials=100, checkpoints=(0.0, 1.0, 2.0),
                         sweep_sizes=(0.5, 0.1))
        calls = record_simulations(monkeypatch)
        report = wl.run_convergence_sweep(spec)
        assert [n for _, n in calls] == [spec.n_trials]
        for entry in report.table[1:]:
            pair = wl.interpolate_pair(small_pair, entry["size"], spec.sweep_components)
            single = wl.run_robustness_experiment(dataclasses.replace(spec, pair=pair))
            assert not single.supplementary["escalated"]
            assert entry["sup_error"] == single.supplementary["sup_estimate"]
            assert entry["half_width"] == single.supplementary["sup_half_width"]
            assert entry["bound"] == single.constants["bound"]


class TestDerivativeAudit:
    def test_routes_agree(self, small_pair):
        report = wl.run_derivative_audit(make_spec(small_pair, t_end=2.0, checkpoints=(0.0, 1.0)))
        assert report.violations == 0
        assert report.supplementary["tangency_ok"]
        by_name = {row["comparison"]: row for row in report.table}
        assert by_name["flow_vs_smoothing"]["max_relative_gap"] <= 1e-4
        assert by_name["flow_vs_fd"]["max_relative_gap"] <= 1e-4
        assert by_name["smoothing_vs_fd"]["max_relative_gap"] <= 1e-4
        assert by_name["second_flow_vs_fd"]["max_relative_gap"] <= 1e-2

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                        reason="longdouble is no wider than double here")
    @pytest.mark.parametrize("seed", [6, 35, 71])
    def test_second_difference_survives_near_zero_second_derivative(self, three_state_model, seed):
        """At the three-state audit config each of these seeds has one trial
        whose second derivative is near zero, where a double-precision second
        difference is only rounding and its relative gap passed 1e-2.  Formed
        in extended precision, it agrees with the flow route."""
        approx = wl.FilterModel.from_raw(
            [0.3, 0.3, 0.4], [[-3.2, 1.1, 2.1], [2.0, -2.9, 0.9], [1.0, 2.2, -3.2]], [0.05, 1.1, -0.95]
        )
        pair = wl.ModelPair(true_model=three_state_model, approx_model=approx)
        report = wl.run_derivative_audit(make_spec(pair, t_end=10.0, n_trials=200, seed=seed))
        row = report.table[3]
        assert row["comparison"] == "second_flow_vs_fd"
        assert row["violations"] == 0

    @pytest.mark.parametrize("t_end, checkpoints", [(0.5, (0.0, 0.5)), (2.0, (0.0, 1.0))])
    def test_simulates_only_the_audited_horizon(self, small_pair, monkeypatch, t_end, checkpoints):
        spec = make_spec(small_pair, t_end=t_end, n_trials=100, checkpoints=checkpoints)
        calls = record_simulations(monkeypatch)
        wl.run_derivative_audit(spec)
        [(grid, n_trials)] = calls
        assert grid.n_steps == spec.grid.node(min(1.0, t_end))
        assert n_trials == spec.n_trials

    def test_off_grid_horizon_rejected(self, small_pair):
        spec = wl.ExperimentSpec(pair=small_pair, grid=wl.TimeGrid(1.2, 3e-3), n_trials=100,
                                 master_seed=1, checkpoints=(0.0, 0.3))
        with pytest.raises(wl.GridMismatchError):
            wl.run_derivative_audit(spec)


class TestIntegratorRefinement:
    def test_solver_order_and_reporting(self, small_pair):
        report = wl.run_integrator_refinement(make_spec(small_pair, t_end=1.0, checkpoints=(0.0, 1.0)))
        assert report.violations == 0
        for ratio in report.supplementary["ode_refinement_ratios"]:
            assert ratio >= 8.0
        dts = [row["dt"] for row in report.table]
        assert dts == [4e-3, 2e-3, 1e-3, 5e-4]
        for row in report.table:
            assert row["gauge_error"] < 1e-2
        assert "coarsest_halving_ratio" in report.supplementary

    def test_one_stack_per_step_size(self, small_pair, monkeypatch):
        """The reference run, the coarsest level, and one stack of ladder plus
        sub-step paths for each finer level: 4000 + 250 + 3500 kernel calls."""
        calls = []
        real = wl.filters.propagate_cell

        def counted(values, *args):
            calls.append(values.shape[0])
            return real(values, *args)

        monkeypatch.setattr(wl.filters, "propagate_cell", counted)
        wl.run_integrator_refinement(make_spec(small_pair, t_end=1.0, n_trials=100,
                                               checkpoints=(0.0, 1.0)))
        assert len(calls) == 7750
        assert calls.count(200) == 3500 and calls.count(100) == 4250

    def test_stacked_ends_equal_separate_runs(self, small_pair, monkeypatch):
        """Ladder ends and sub-step ends equal separate lockstep runs of the
        aggregated and the split increments, bit for bit."""
        truth = small_pair.true_model
        spec = make_spec(small_pair, t_end=0.5, n_trials=100, checkpoints=(0.0, 0.5))
        runs = []
        real = experiments._lockstep

        def recorded(filters, increments, dt):
            for block in real(filters, increments, dt):
                yield block
            runs.append((increments.copy(), dt, block[-1].copy()))

        monkeypatch.setattr(experiments, "_lockstep", recorded)
        report = wl.run_integrator_refinement(spec)
        monkeypatch.undo()

        def end(increments, dt):
            *_, last = experiments._lockstep([(truth.initial, truth.generator, truth.observation)],
                                             increments, dt)
            return last[-1]

        m = spec.n_trials
        fine = wl.simulate_increments_batch(truth.initial, truth.generator, truth.observation,
                                            wl.TimeGrid(0.5, 2.5e-4), spec.master_seed, m)
        coarse = fine.reshape(m, -1, 16).sum(axis=2)
        assert len(runs) == 5
        reference_end = end(fine, 2.5e-4)
        assert np.array_equal(runs[0][2], reference_end)
        ladder, substeps = [], []
        for j, (increments, dt, last) in enumerate(runs[1:]):
            assert dt == experiments.REFINEMENT_LADDER[j]
            level = fine.reshape(m, -1, 16 // 2**j).sum(axis=2)
            split = np.repeat(coarse, 2**j, axis=1) / 2**j
            assert np.array_equal(increments[:m], level)
            ladder.append(end(level, dt))
            substeps.append(end(split, dt))
            assert np.array_equal(last[:m], ladder[-1])
            if j == 0:
                assert increments.shape[0] == m
            else:
                assert np.array_equal(increments[m:], split)
                assert np.array_equal(last[m:], substeps[-1])
        gauge = [float(np.abs(e - reference_end).sum(axis=1).mean()) for e in ladder]
        assert [row["gauge_error"] for row in report.table] == gauge
        ode = [float(np.abs(e - substeps[-1]).sum(axis=1).mean()) for e in substeps[:-1]]
        assert report.supplementary["ode_refinement_errors"] == ode


def poison_last_filter(monkeypatch, trial=0):
    """Make every lockstep stack report NaN for one trial of its last filter."""
    real = experiments._lockstep

    def poisoned(filters, increments, dt):
        d = filters[0][1].d
        for block in real(filters, increments, dt):
            block = block.copy()
            block[:, trial, -d:] = np.nan
            yield block

    monkeypatch.setattr(experiments, "_lockstep", poisoned)


class TestNanCountsAsViolation:
    """A NaN statistic fails its comparison: every check is written so that
    only a value inside its limit passes."""

    @pytest.mark.parametrize("where", ["samples", "bound", "allowance"])
    def test_rows(self, where):
        samples = np.ones((100, 2))
        bounds, allowance = [2.0, 2.0], 0.0
        if where == "samples":
            samples[7, 1] = np.nan
        elif where == "bound":
            bounds[1] = math.nan
        else:
            allowance = math.nan
        rows, inconclusive = experiments._rows(samples, "mean", (0.0, 1.0), bounds, allowance)
        assert [row["violation"] for row in rows] == [where == "allowance", True]
        assert not inconclusive

    def test_robustness_rows_and_l1_dominance(self, small_pair, monkeypatch):
        # 0.25 is off the dense grid, so the recorded nodes are the dense nodes plus node 250.
        spec = make_spec(small_pair, t_end=1.0, n_trials=100, checkpoints=(0.0, 0.25, 0.5, 1.0))
        poison_last_filter(monkeypatch)
        report = wl.run_robustness_experiment(spec)
        recorded = len(set(experiments._dense_nodes(spec.grid)) | {0, 250, 500, 1000})
        assert report.supplementary["l1_dominance_violations"] == recorded
        assert all(row["violation"] for row in report.table)
        assert report.violations == len(report.table) + recorded
        assert not report.supplementary["escalated"]

    def test_forgetting_excursions(self, small_pair, monkeypatch):
        spec = make_spec(small_pair, t_end=1.0, n_trials=100, checkpoints=(0.0, 0.5, 1.0))
        poison_last_filter(monkeypatch, trial=42)
        report = wl.run_forgetting_experiment(spec)
        assert report.supplementary["pathwise_violations"] == spec.grid.n_steps + 1
        assert all(row["violation"] for row in report.table)
        assert report.violations == len(report.table) + spec.grid.n_steps + 1

    def test_forgetting_rate(self, small_pair, monkeypatch):
        spec = make_spec(small_pair, t_end=3.0, n_trials=100, checkpoints=(0.0, 3.0))
        poison_last_filter(monkeypatch, trial=42)
        report = wl.run_forgetting_experiment(spec)
        assert math.isnan(report.supplementary["fitted_rate"])
        assert not report.supplementary["rate_within_bound"]
        assert report.violations == len(report.table) + spec.grid.n_steps + 2

    def test_inverse_moment_rows(self, small_pair, monkeypatch):
        spec = make_spec(small_pair, t_end=1.0, n_trials=100, checkpoints=(0.0, 0.5, 1.0))
        poison_last_filter(monkeypatch)
        report = wl.run_inverse_moment_experiment(spec)
        assert report.violations == 3
        assert all(row["violation"] for row in report.table)

    @pytest.mark.parametrize("route, rows", [
        ("derivative_from_flow", {"flow_vs_smoothing", "flow_vs_fd"}),
        ("derivative_from_smoothing", {"flow_vs_smoothing", "smoothing_vs_fd"}),
        ("second_derivative_from_flow", {"second_flow_vs_fd"}),
    ])
    def test_derivative_audit_gaps_and_tangency(self, small_pair, monkeypatch, route, rows):
        real = getattr(experiments, route)

        def poisoned(*args):
            out = real(*args).copy()
            out[3, 0] = np.nan
            return out

        monkeypatch.setattr(experiments, route, poisoned)
        report = wl.run_derivative_audit(make_spec(small_pair, t_end=1.0, n_trials=100,
                                                   checkpoints=(0.0, 1.0)))
        counts = {row["comparison"]: row["violations"] for row in report.table}
        assert counts == {name: int(name in rows) for name in counts}
        assert not report.supplementary["tangency_ok"]
        assert report.violations == len(rows) + 1

    def test_gauge_overflow_is_a_typed_error(self):
        """Observation levels 2000 apart put the gauge exponent c dt near 2000,
        past the double range of exp.  The step-halving probe (on the prefix
        scan) and the inverse-moment campaign (through the probe, and on the
        lockstep stack when the tolerance is strict) raise StateCollapseError
        before any exp call, so no numpy warning escapes and no NaN reaches a report."""
        model = wl.FilterModel.from_raw([0.5, 0.5], [[-1.0, 1.0], [1.0, -1.0]], [0.0, 2000.0])
        spec = make_spec(wl.ModelPair(true_model=model, approx_model=model), t_end=1.0,
                         n_trials=100, seed=3, checkpoints=(0.0, 0.5, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(wl.StateCollapseError, match="double range"):
                experiments.measure_integrator_tolerance(model, spec.grid, 3)
            for strict in (False, True):
                with pytest.raises(wl.StateCollapseError, match="double range"):
                    wl.run_inverse_moment_experiment(dataclasses.replace(spec, strict_tolerance=strict))

    def test_integrator_refinement_order(self, small_pair, monkeypatch):
        poison_last_filter(monkeypatch)
        report = wl.run_integrator_refinement(make_spec(small_pair, t_end=1.0, n_trials=100,
                                                        checkpoints=(0.0, 1.0)))
        # Only the coarsest stack has no sub-step rows, so only the first ratio is NaN.
        first, *rest = report.supplementary["ode_refinement_ratios"]
        assert math.isnan(first) and all(r >= 8.0 for r in rest)
        assert report.violations == 1


class TestRegistry:
    def test_six_experiments_listed(self):
        names = [name for name, _ in wl.list_experiments()]
        assert names == [
            "robustness", "forgetting", "inverse-moment",
            "convergence-sweep", "derivative-audit", "integrator-refinement",
        ]

    def test_unknown_name_rejected(self, small_pair):
        with pytest.raises(wl.UnknownExperimentError):
            wl.run_experiment("mystery", make_spec(small_pair))

    def test_dispatch(self, small_pair):
        spec = make_spec(small_pair, t_end=1.0, n_trials=100, checkpoints=(0.0, 1.0))
        report = wl.run_experiment("derivative-audit", spec)
        assert report.experiment == "derivative-audit"
        assert report.config["master_seed"] == spec.master_seed
