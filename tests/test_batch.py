"""The batched march of both solvers: rows of one batch against their single
runs, a failing row, and the schedule a batch shares."""
import numpy as np
import pytest

from predprey import simulate
from predprey.controllers import ControllerSpec
from predprey.errors import NumericalError
from predprey.lyapunov import lyap_config_for
from predprey.simulate import (
    ICSpec,
    SimConfig,
    simulate_direct,
    simulate_direct_batch,
    simulate_transformed,
    simulate_transformed_batch,
)

from conftest import make_setup

SPECS = (
    ControllerSpec(kind="open_loop"),
    ControllerSpec(kind="control_a", eps=0.2, beta=0.6),
    ControllerSpec(kind="control_b", eps=0.01, beta=0.13, delta=0.2),
    ControllerSpec(kind="measured", eps=0.2, beta=0.6),
)
SERIES = ("times", "eta", "u", "G1", "G2", "psi_min", "V0", "V1", "V")
# solver -> (single run, batch entry, name of its first piece of march work in simulate)
SOLVERS = {
    "direct": (simulate_direct, simulate_direct_batch, "_march_histories"),
    "transformed": (simulate_transformed, simulate_transformed_batch, "_march_histories"),
}


def per_solver(values, ids):
    """(solver, value) cases of both solvers; the direct cases keep bare ids,
    so their test names stay stable."""
    return [pytest.param(solver, value, id=i if solver == "direct" else f"{solver}-{i}")
            for solver in SOLVERS for value, i in zip(values, ids)]


@pytest.fixture(scope="module", params=[100, 400])
def setup(request, setup100, setup400):
    return {100: setup100, 400: setup400}[request.param]


@pytest.mark.parametrize("solver, record_every", per_solver([1, 3], ["1", "3"]))
def test_batch_rows_agree_with_their_single_runs(setup, solver, record_every):
    # all four laws from both starts in one mixed batch, with snapshots; each
    # row is bitwise its run alone.  The transformed solver also starts far
    # out, where exp(eta) is large
    single_run, batch_run, _ = SOLVERS[solver]
    starts = [ICSpec(kind="FQ"), ICSpec(kind="SQ")]
    if solver == "transformed":
        starts.append(ICSpec(kind="eta", eta0=(-4.57, 3.23)))
    cfgs = [SimConfig(t_final=1.5, controller=spec, ic=ic,
                      record_every=record_every, snapshot_times=(0.0, 0.75, 1.5))
            for spec in SPECS for ic in starts]
    batch = batch_run(setup, cfgs)
    assert len(batch) == len(cfgs)
    for cfg, row in zip(cfgs, batch):
        lyap = lyap_config_for(cfg.controller, setup.eq, setup.sigma)
        single = single_run(setup, cfg).finalize_lyapunov(setup.eq, lyap)
        row.finalize_lyapunov(setup.eq, lyap)
        what = f"{solver} {cfg.controller.kind}/{cfg.ic.kind}"
        assert row.meta == single.meta, what
        for name in SERIES:
            assert np.array_equal(getattr(row, name), getattr(single, name),
                                  equal_nan=True), f"{what} {name}"
        assert len(row.snapshots) == len(single.snapshots) == 3, what
        for (t_b, *x_b), (t_s, *x_s) in zip(row.snapshots, single.snapshots):
            assert t_b == t_s, what
            for got, ref in zip(x_b, x_s):
                assert np.array_equal(got, ref), f"{what} snapshot t={t_s}"


DIVERGING = SimConfig(
    t_final=2.0, ic=ICSpec(kind="SQ"),
    controller=ControllerSpec(kind="control_a", eps=0.2, beta=5000.0),
)
HEALTHY = SimConfig(t_final=2.0, ic=ICSpec(kind="FQ"),
                    controller=ControllerSpec(kind="open_loop"))


@pytest.mark.parametrize("solver, order", per_solver(
    ["failing_first", "failing_last"], ["failing_first", "failing_last"]))
def test_failing_row_stops_the_batch_with_its_single_run_error(setup100, solver, order):
    single_run, batch_run, _ = SOLVERS[solver]
    with pytest.raises(NumericalError) as single:
        single_run(setup100, DIVERGING)
    cfgs = [DIVERGING, HEALTHY] if order == "failing_first" else [HEALTHY, DIVERGING]
    with pytest.raises(NumericalError) as batch:
        batch_run(setup100, cfgs)
    assert single.value.reason is not None
    assert (batch.value.reason, batch.value.t) == (single.value.reason, single.value.t)
    assert 0.0 < batch.value.t < DIVERGING.t_final


# the measured law's prey output underflows with e^eta1 at t = 0.03
MEASURED_DIVERGING = SimConfig(
    t_final=2.0, ic=ICSpec(kind="SQ"),
    controller=ControllerSpec(kind="measured", eps=0.2, beta=40.0),
)


@pytest.mark.parametrize("solver, bad, reason", [
    pytest.param(solver, bad, reason, id=solver if law == "control_a" else f"{solver}-{law}")
    for law, bad, reason in (("control_a", DIVERGING, None),
                             ("measured", MEASURED_DIVERGING, "measurement_nonpositive"))
    for solver in SOLVERS])
def test_failing_row_is_reported(setup100, solver, bad, reason):
    single_run, batch_run, _ = SOLVERS[solver]
    with pytest.raises(NumericalError) as single:
        single_run(setup100, bad)
    with pytest.raises(NumericalError) as batch:
        batch_run(setup100, [HEALTHY, bad, HEALTHY])
    assert single.value.row == 0
    assert (batch.value.reason, batch.value.t, batch.value.row) == (
        single.value.reason, single.value.t, 1)
    assert str(batch.value) == str(single.value)
    if reason is not None:
        assert (batch.value.reason, batch.value.t) == (reason, pytest.approx(0.03))


@pytest.mark.parametrize("solver", list(SOLVERS))
def test_earliest_failure_wins_over_an_earlier_row(setup100, solver):
    # alone, row 0 fails the nan guard at t = 0.04 and row 1 at t = 0.03: the
    # batch reports row 1's earlier step, not the first row that fails
    _, batch_run, _ = SOLVERS[solver]
    cfgs = [SimConfig(t_final=4.0, ic=ICSpec(kind="SQ"),
                      controller=ControllerSpec(kind="control_a", eps=0.2, beta=beta))
            for beta in (40.0, 100.0)]
    for cfg, t in zip(cfgs, (0.04, 0.03)):
        with pytest.raises(NumericalError) as alone:
            batch_run(setup100, [cfg])
        assert (alone.value.reason, alone.value.t) == ("nan_guard", pytest.approx(t))
    with pytest.raises(NumericalError) as batch:
        batch_run(setup100, cfgs)
    assert (batch.value.reason, batch.value.t, batch.value.row) == (
        "nan_guard", pytest.approx(0.03), 1)


CHANGES = [dict(t_final=1.0), dict(record_every=2), dict(snapshot_times=(0.5,))]


@pytest.mark.parametrize("solver, change",
                         per_solver(CHANGES, [f"change{i}" for i in range(len(CHANGES))]))
def test_batch_with_mixed_schedules_is_rejected_before_it_marches(setup100, monkeypatch,
                                                                   solver, change):
    def no_step(*args, **kwargs):
        raise AssertionError("the batch marched")

    _, batch_run, update = SOLVERS[solver]
    monkeypatch.setattr(simulate, update, no_step)
    odd = SimConfig(**{"t_final": 2.0, "controller": HEALTHY.controller,
                       "ic": ICSpec(kind="SQ"), **change})
    with pytest.raises(ValueError, match="share t_final"):
        batch_run(setup100, [HEALTHY, odd])


def test_empty_batch_is_rejected(setup100):
    for _, batch_run, _ in SOLVERS.values():
        with pytest.raises(ValueError, match="at least one run"):
            batch_run(setup100, [])


def test_batch_of_one_is_the_single_run():
    setup = make_setup(60)
    cfg = SimConfig(t_final=1.0, controller=SPECS[2], ic=ICSpec(kind="SQ"),
                    snapshot_times=(0.5,))
    for single_run, batch_run, _ in SOLVERS.values():
        (row,) = batch_run(setup, [cfg])
        single = single_run(setup, cfg)
        for name in SERIES[:6]:
            assert np.array_equal(getattr(row, name), getattr(single, name)), name
        assert np.array_equal(row.snapshots[0][1], single.snapshots[0][1])


def test_row_dot_sums_each_row_as_one_dot():
    # both forms, the numpy >= 2 gufunc and the matmul used before it, give
    # each row of a stacked array bitwise its 1-D dot
    from predprey.model import _row_dot_matmul, row_dot

    rng = np.random.default_rng(3)
    x, w = rng.random((4, 2, 401)), rng.random((2, 401))
    ref = np.array([[w[s] @ x[b, s] for s in range(2)] for b in range(4)])
    assert np.array_equal(row_dot(x, w), ref)
    assert np.array_equal(_row_dot_matmul(x, w), ref)
    assert row_dot(x[0, 1], w[1]) == ref[0, 1]
