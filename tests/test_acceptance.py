"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines, or
through the CLI as ``predprey verify``.
"""
import pytest

from predprey import acceptance
from predprey.acceptance import REGISTRY, VerifyContext, multiplier_v
from predprey.lyapunov import v_full
from predprey.simulate import NAMED_STARTS, ic_from_spec
from predprey.transform import to_transformed


@pytest.fixture(scope="module")
def ctx():
    return VerifyContext(n_cells=400)


@pytest.mark.parametrize("criterion", REGISTRY, ids=lambda c: c.__name__)
def test_criterion(ctx, criterion):
    result = criterion(ctx)
    print(result.line())
    assert not result.skipped, result.detail
    assert result.passed, result.line()


def test_registry_holds_the_criteria_in_id_order():
    # the decorator registers each criterion where it is defined
    names = [c.__name__ for c in REGISTRY]
    assert len(names) == 13
    assert [n.split("_")[1] for n in names] == [f"{i:02d}" for i in range(1, 14)]
    assert names == sorted(n for n in dir(acceptance) if n.startswith("criterion_"))


@pytest.mark.parametrize("kind", ["control_a", "control_b"])
def test_criterion_11_marches_the_start_it_bisected(ctx, kind):
    # the ICSpec criterion 11 marches is FQ's direction at the bisected scale,
    # in plain floats, and its V is the bisection's V at that scale, bitwise
    spec = ctx.scaled_ic_inside(kind)
    offset, slope = NAMED_STARTS["FQ"]
    s = spec.log_offset[0]
    assert type(s) is float and 0.0 < s < 1.0
    assert spec.log_offset == tuple(s * o for o in offset)
    assert spec.log_slope == tuple(s * k for k in slope)
    setup, cfg = ctx.setup(), ctx.lyap_config(kind)
    ts = to_transformed(ic_from_spec(spec, setup.eq), setup.eq, setup.adj)
    v_marched = v_full(ts.eta, ts.psi, cfg, setup.eq)
    assert v_marched == multiplier_v(setup, cfg, [s], [offset], [slope])[0]
    assert v_marched <= 0.9 * ctx.roa(kind).c_star
