"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines, or
through the CLI as ``predprey verify``.
"""
import ast
import inspect

import pytest

from predprey import acceptance
from predprey.acceptance import CRITERION_GROUPS, REGISTRY, VerifyContext, multiplier_v
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


def callers_of(source: str, name: str) -> set[str]:
    """The functions and methods of ``source`` that call ``name`` (as a name or
    an attribute), directly or through another function of ``source``."""
    calls = {node.name: {call.func.id if isinstance(call.func, ast.Name) else call.func.attr
                         for call in ast.walk(node) if isinstance(call, ast.Call)
                         and isinstance(call.func, (ast.Name, ast.Attribute))}
             for node in ast.walk(ast.parse(source))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    found, reached = set(), {name}
    while True:
        new = {fn for fn, called in calls.items() if called & reached} - found
        if not new:
            return found
        found |= new
        reached |= new


def test_rule_finds_direct_and_indirect_callers():
    source = ("class C:\n    def run(self):\n        return 1\n"
              "    def cached(self):\n        return self.run()\n"
              "def a(ctx):\n    return ctx.cached()\ndef b(ctx):\n    return run(ctx)\n"
              "def c(ctx):\n    return ctx.setup()\n")
    assert callers_of(source, "run") == {"cached", "a", "b"}


def test_groups_partition_the_registry():
    # each criterion in exactly one group, and every criterion that marches a
    # reference run in the first, which verify runs in its own process: the
    # benchmark's tracer counts the steps and law calls of those runs there
    ids = [c.cid for c in REGISTRY]
    grouped = [cid for group in CRITERION_GROUPS for cid in group]
    assert len(CRITERION_GROUPS) == 2
    assert sorted(grouped) == ids
    marching = callers_of(inspect.getsource(acceptance), "direct_run")
    in_first = {c.cid for c in REGISTRY if c.__name__ in marching}
    assert in_first == {"03", "05", "06", "07"}
    assert in_first <= set(CRITERION_GROUPS[0])
