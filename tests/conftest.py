import warnings

import numpy as np
import pytest

import wonhamlab as wl
from wonhamlab.filters import _gauge_factors, _lockstep, propagate_cell, propagate_cell_matrix, split_rate_matrix

# The hypothesis plugin imports this module when it reports a failing example,
# and it imports libcst, which raises a DeprecationWarning.  Under -W error that
# aborts the session with INTERNALERROR and hides the other failures.  Import it
# once here with that warning ignored; warnings from the package stay errors.
try:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        import hypothesis.extra._patching  # noqa: F401
except ImportError:
    pass


@pytest.fixture(scope="session")
def ref_model():
    """Symmetric two-state chain observed at levels (0, 1), uniform start."""
    return wl.FilterModel.from_raw([0.5, 0.5], [[-1.0, 1.0], [1.0, -1.0]], [0.0, 1.0])


@pytest.fixture(scope="session")
def perturbed_model():
    """Template perturbation of the reference model (unit sweep size)."""
    return wl.FilterModel.from_raw([0.3, 0.7], [[-1.3, 1.3], [0.8, -0.8]], [0.1, 1.15])


@pytest.fixture(scope="session")
def ref_pair(ref_model, perturbed_model):
    return wl.ModelPair(true_model=ref_model, approx_model=perturbed_model)


@pytest.fixture(scope="session")
def three_state_model():
    return wl.FilterModel.from_raw(
        [0.2, 0.3, 0.5],
        [[-3.0, 1.0, 2.0], [2.0, -3.0, 1.0], [1.0, 2.0, -3.0]],
        [0.0, 1.0, -1.0],
    )


@pytest.fixture(scope="session")
def observe():
    """Factory: observation path of a model over (t_end, dt) for a master seed."""

    def _observe(model, t_end, dt, seed):
        grid = wl.TimeGrid(t_end, dt)
        sig, noise = wl.spawn_generators(seed, 2)
        path = wl.simulate_signal(model.initial, model.generator, grid, sig)
        return wl.simulate_observations(path, model.observation, grid, noise)

    return _observe


@pytest.fixture(scope="session")
def ref_obs(ref_model, observe):
    """One observation path of the reference model on [0, 1] at dt 1e-3."""
    return observe(ref_model, 1.0, 1e-3, 20260810)


def batch_flows(model, increments, dt):
    """Unit-mass propagators over the whole increment range, one per path."""
    s_diag, t_off = split_rate_matrix(model.generator.entries)
    m = increments.shape[0]
    flows = np.broadcast_to(np.eye(model.d), (m, model.d, model.d)).copy()
    for k in range(increments.shape[1]):
        flows = propagate_cell_matrix(flows, increments[:, k], dt, s_diag, t_off,
                                      model.observation.levels)
        flows /= flows.sum(axis=(1, 2), keepdims=True)
    return flows


def gauge_cell(values, d_y, dt, s_diag, t_off, levels):
    """One cell kernel call on the gauge factors ``_gauge_factors`` gives for ``d_y``."""
    return propagate_cell(values, dt, t_off, _gauge_factors(d_y, dt, s_diag, levels))


def lockstep_nodes(filters, increments, dt):
    """``_lockstep``'s flat rows (m, F * d), node by node across its blocks of nodes."""
    for block in _lockstep(filters, increments, dt):
        yield from block


def lockstep_stacks(filters, increments, dt):
    """``lockstep_nodes``' rows at every node, viewed as the stack (F, m, d)."""
    d = filters[0][1].d
    for rows in lockstep_nodes(filters, increments, dt):
        yield rows.reshape(len(rows), -1, d).swapaxes(0, 1)
