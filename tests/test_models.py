import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wonhamlab as wl


class TestValidateGenerator:
    def test_symmetric_is_mixing(self):
        gen = wl.validate_generator([[-1.0, 1.0], [1.0, -1.0]])
        assert gen.mixing
        assert gen.d == 2

    def test_zero_off_diagonal_is_valid_but_not_mixing(self):
        gen = wl.validate_generator([[-1.0, 1.0], [0.0, 0.0]])
        assert not gen.mixing

    def test_bad_row_sum_rejected(self):
        with pytest.raises(wl.NonzeroRowSumError):
            wl.validate_generator([[-1.0, 2.0], [1.0, -1.0]])

    def test_non_square_rejected(self):
        with pytest.raises(wl.NonSquareError):
            wl.validate_generator([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0]])

    def test_negative_off_diagonal_rejected(self):
        with pytest.raises(wl.NegativeOffDiagonalError):
            wl.validate_generator([[1.0, -1.0], [1.0, -1.0]])

    def test_entries_are_read_only(self):
        gen = wl.validate_generator([[-1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(ValueError):
            gen.entries[0, 0] = 5.0

    @given(
        rates=st.lists(
            st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_accepts_exactly_zero_row_sum_nonneg_offdiag(self, rates):
        raw = np.array(rates)
        np.fill_diagonal(raw, 0.0)
        np.fill_diagonal(raw, -raw.sum(axis=1))
        gen = wl.validate_generator(raw)
        assert np.allclose(gen.entries.sum(axis=1), 0.0, atol=1e-12)
        bad = raw.copy()
        bad[0, 1] += 1e-6
        with pytest.raises(wl.NonzeroRowSumError):
            wl.validate_generator(bad)


class TestMixingRate:
    def test_symmetric_two_state(self):
        assert wl.mixing_rate(wl.validate_generator([[-1.0, 1.0], [1.0, -1.0]])) == pytest.approx(2.0)

    def test_asymmetric_two_state(self):
        gen = wl.validate_generator([[-2.0, 2.0], [3.0, -3.0]])
        assert wl.mixing_rate(gen) == pytest.approx(2.0 * math.sqrt(6.0))

    def test_not_mixing_raises(self):
        gen = wl.validate_generator([[-1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(wl.NotMixingError):
            wl.mixing_rate(gen)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        raw = rng.uniform(0.1, 3.0, size=(4, 4))
        np.fill_diagonal(raw, 0.0)
        np.fill_diagonal(raw, -raw.sum(axis=1))
        gen = wl.validate_generator(raw)
        base = wl.mixing_rate(gen)
        for perm in itertools.permutations(range(4)):
            p = np.eye(4)[list(perm)]
            permuted = wl.validate_generator(p @ raw @ p.T)
            assert wl.mixing_rate(permuted) == pytest.approx(base, rel=1e-12)


def _simplex_grid(d, steps):
    """Barycentric grid with the vertices included."""
    pts = []
    for combo in itertools.product(range(steps + 1), repeat=d - 1):
        if sum(combo) <= steps:
            rest = steps - sum(combo)
            pts.append(np.array(list(combo) + [rest]) / steps)
    return np.array(pts)


class TestGeneratorGap:
    def test_equal_inputs(self):
        gen = wl.validate_generator([[-1.0, 1.0], [1.0, -1.0]])
        assert wl.generator_gap(gen, gen) == 0.0

    def test_two_state_example_against_grid_oracle(self):
        a = wl.validate_generator([[-1.0, 1.0], [1.0, -1.0]])
        b = wl.validate_generator([[-1.1, 1.1], [1.0, -1.0]])
        assert wl.generator_gap(a, b) == pytest.approx(0.2, abs=1e-12)
        diff = (b.entries - a.entries).T
        grid = _simplex_grid(2, 2000)
        brute = np.abs(grid @ diff.T).sum(axis=1).max()
        assert wl.generator_gap(a, b) == pytest.approx(brute, abs=1e-9)

    def test_three_state_grid_oracle(self):
        rng = np.random.default_rng(11)

        def random_gen():
            raw = rng.uniform(0.1, 2.0, size=(3, 3))
            np.fill_diagonal(raw, 0.0)
            np.fill_diagonal(raw, -raw.sum(axis=1))
            return wl.validate_generator(raw)

        a, b = random_gen(), random_gen()
        diff = (b.entries - a.entries).T
        grid = _simplex_grid(3, 100)
        brute = np.abs(grid @ diff.T).sum(axis=1).max()
        assert wl.generator_gap(a, b) == pytest.approx(brute, abs=1e-9)

    def test_pseudometric_on_random_triples(self):
        rng = np.random.default_rng(5)
        gens = []
        for _ in range(3):
            raw = rng.uniform(0.05, 2.0, size=(3, 3))
            np.fill_diagonal(raw, 0.0)
            np.fill_diagonal(raw, -raw.sum(axis=1))
            gens.append(wl.validate_generator(raw))
        a, b, c = gens
        assert wl.generator_gap(a, b) == pytest.approx(wl.generator_gap(b, a))
        assert wl.generator_gap(a, c) <= wl.generator_gap(a, b) + wl.generator_gap(b, c) + 1e-12

    def test_dimension_mismatch(self):
        a = wl.validate_generator([[-1.0, 1.0], [1.0, -1.0]])
        b = wl.validate_generator([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]])
        with pytest.raises(wl.DimensionMismatchError):
            wl.generator_gap(a, b)


class TestInverseMomentConstant:
    def test_reference_model_value(self, ref_model):
        assert wl.inverse_moment_constant(
            ref_model.initial, ref_model.generator, ref_model.observation
        ) == pytest.approx(6.0)

    def test_skewed_initial_value(self):
        gen = wl.validate_generator([[-1.0, 1.0], [1.0, -1.0]])
        obs = wl.validate_observation([0.0, 1.0])
        value = wl.inverse_moment_constant([0.1, 0.9], gen, obs)
        assert value == pytest.approx(13.0)

    def test_not_mixing(self):
        gen = wl.validate_generator([[-1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(wl.NotMixingError):
            wl.inverse_moment_constant([0.5, 0.5], gen, wl.validate_observation([0.0, 1.0]))

    def test_boundary_initial(self, ref_model):
        with pytest.raises(wl.BoundaryInitialConditionError):
            wl.inverse_moment_constant([1.0, 0.0], ref_model.generator, ref_model.observation)

    def test_exceeds_state_count(self, three_state_model):
        value = wl.inverse_moment_constant(
            three_state_model.initial, three_state_model.generator, three_state_model.observation
        )
        assert value > three_state_model.d


class TestRobustnessConstants:
    def test_reference_values(self, ref_model):
        pair = wl.ModelPair(true_model=ref_model, approx_model=ref_model)
        c = wl.robustness_constants(pair)
        assert c.c1 == pytest.approx(12.0)
        assert c.c3 == pytest.approx(3.0)

    def test_c2_transcription_reassembled_from_pieces(self, ref_model):
        # Rebuild the observation coefficient from its four summands, one per
        # integral estimate, and compare against the packaged value.
        pair = wl.ModelPair(true_model=ref_model, approx_model=ref_model)
        d = 2
        beta = wl.mixing_rate(ref_model.generator)
        h = ref_model.observation.levels
        k_const = 2 * np.abs(h).max() + np.abs(h).max()
        piece_noise = k_const * (d + 1)
        piece_cross = (d + 1) * np.abs(h).max() + d * np.ptp(h)
        piece_second = d * (d + 1) * (np.ptp(h) + np.ptp(h))
        assert k_const == pytest.approx(3.0)
        expected = (piece_noise + piece_cross + piece_second) / beta
        assert expected == pytest.approx(13.0)
        assert wl.robustness_constants(pair).c2 == pytest.approx(expected)

    def test_zero_perturbation_bound_is_zero(self, ref_model):
        pair = wl.ModelPair(true_model=ref_model, approx_model=ref_model)
        assert wl.robustness_bound(pair) == 0.0
        c = wl.robustness_constants(pair)
        assert c.c1 > 0 and c.c2 > 0 and c.c3 > 0

    def test_c3_decreases_when_approx_rates_scale_up(self, ref_model):
        pair_slow = wl.ModelPair(true_model=ref_model, approx_model=ref_model)
        fast = wl.FilterModel.from_raw([0.5, 0.5], [[-2.0, 2.0], [2.0, -2.0]], [0.0, 1.0])
        pair_fast = wl.ModelPair(true_model=ref_model, approx_model=fast)
        assert wl.robustness_constants(pair_fast).c3 < wl.robustness_constants(pair_slow).c3

    def test_requires_mixing(self, ref_model):
        lazy = wl.FilterModel.from_raw([0.5, 0.5], [[-1.0, 1.0], [0.0, 0.0]], [0.0, 1.0])
        with pytest.raises(wl.NotMixingError):
            wl.robustness_constants(wl.ModelPair(true_model=ref_model, approx_model=lazy))


class TestSimplexAndTangent:
    def test_simplex_validation(self):
        v = wl.validate_simplex([0.25, 0.75])
        assert v.sum() == pytest.approx(1.0)
        with pytest.raises(wl.BoundaryInitialConditionError):
            wl.validate_simplex([0.5, 0.6])
        with pytest.raises(wl.BoundaryInitialConditionError):
            wl.validate_simplex([0.0, 1.0])
        boundary = wl.validate_simplex([0.0, 1.0], allow_boundary=True)
        assert boundary[0] == 0.0

    def test_tangent_validation(self):
        wl.validate_tangent([0.5, -0.5])
        with pytest.raises(wl.DimensionMismatchError):
            wl.validate_tangent([0.5, -0.4])

    @pytest.mark.parametrize("weights", [[math.nan, 0.5], [math.nan, 1.0], [math.inf, -math.inf],
                                         [math.inf, 0.0], [0.25, 0.75, math.nan]])
    @pytest.mark.parametrize("allow_boundary", [False, True])
    def test_simplex_rejects_non_finite(self, weights, allow_boundary):
        with pytest.raises(wl.BoundaryInitialConditionError, match="non-finite"):
            wl.validate_simplex(weights, allow_boundary=allow_boundary)

    @pytest.mark.parametrize("components", [[math.inf, -math.inf], [math.nan, 0.0],
                                            [0.5, -0.5, math.nan], [-math.inf, math.inf, 0.0]])
    def test_tangent_rejects_non_finite(self, components):
        with pytest.raises(wl.DimensionMismatchError, match="non-finite"):
            wl.validate_tangent(components)

    @given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_normalized_weights_always_validate(self, weights):
        arr = np.array(weights)
        wl.validate_simplex(arr / arr.sum())


class TestAuxiliaryConstants:
    def test_component_inverse_moment_bound_at_zero_horizon(self, ref_model):
        value = wl.component_inverse_moment_bound(
            ref_model.initial, ref_model.generator, ref_model.observation, state=0, power=1, t=0.0
        )
        assert value == pytest.approx(2.0)

    def test_component_inverse_moment_bound_growth(self, ref_model):
        # exit rate 1 and squared spread 1 give exp(k t + k(k+1)/2 t) growth
        value = wl.component_inverse_moment_bound(
            ref_model.initial, ref_model.generator, ref_model.observation, state=0, power=1, t=1.0
        )
        assert value == pytest.approx(2.0 * math.exp(2.0))

    def test_stationary_distribution(self, ref_model, three_state_model):
        pi = wl.stationary_distribution(ref_model.generator)
        assert pi == pytest.approx([0.5, 0.5], abs=1e-12)
        pi3 = wl.stationary_distribution(three_state_model.generator)
        assert pi3.sum() == pytest.approx(1.0)
        assert np.abs(three_state_model.generator.drift_transpose @ pi3).max() < 1e-12

    def test_observation_gap(self):
        a = wl.validate_observation([0.0, 1.0])
        b = wl.validate_observation([0.1, 1.15])
        assert wl.observation_gap(a, b) == pytest.approx(0.15)
