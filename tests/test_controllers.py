import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from predprey.controllers import (
    BoundController,
    ControllerSpec,
    GainsA,
    GainsB,
    SENSORS,
    big_phi,
    clamp_eta,
    control_A,
    control_B,
    control_B_floor,
    control_measured,
    phi,
    sensor_equilibrium,
)
from predprey.errors import GainConstraintError, NumericalError
from predprey.model import quad, row_dot
from predprey.simulate import ICSpec, ic_from_spec
from predprey.transform import pi_functional, to_transformed

from oracles import sensor_equilibrium_closed_form

GAINS_A = GainsA(eps=0.2, beta=0.6)
GAINS_B = GainsB(eps=0.01, beta=0.13, delta=0.2)


def test_phi_at_origin(eq400):
    p1, p2 = phi(np.zeros(2), eq400)
    assert p1 == 0.0 and p2 == 0.0


def test_phi_reference_value(eq400):
    _, p2 = phi(np.array([0.0, -1.41]), eq400)
    assert p2 == pytest.approx(eq400.lambda2 * (np.exp(-1.41) - 1.0), abs=1e-12)
    assert p2 == pytest.approx(-0.7710, abs=1e-3)


def test_phi_saturates(eq400):
    p1, _ = phi(np.array([20.0, 0.0]), eq400)
    assert p1 == pytest.approx(1.0 / eq400.lambda1, abs=1e-8)
    _, p2 = phi(np.array([0.0, -50.0]), eq400)
    assert p2 == pytest.approx(-eq400.lambda2, abs=1e-8)


def test_phi_survives_absurd_arguments(eq400):
    # the exponent clamp keeps evaluation finite even for absurd states
    p1, p2 = phi(np.array([-1e6, 1e6]), eq400)
    assert np.isfinite(p1) and np.isfinite(p2)


def test_clamp_eta_is_bitwise_np_clip():
    # random states with both entries past the clamp, the infinities, nan and
    # a negative zero: the same bits as np.clip, sign of zero and nan included
    rng = np.random.default_rng(7)
    eta = rng.normal(0.0, 600.0, (4000, 2))
    specials = [701.0, -701.0, 700.0, -700.0, 1e308, np.inf, -np.inf, np.nan, -0.0, 0.0]
    eta[:len(specials), 0] = specials
    eta[:len(specials), 1] = specials[::-1]
    ref = np.clip(eta, -700.0, 700.0)
    got = clamp_eta(eta)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))
    assert np.array_equal(clamp_eta(eta[3]).view(np.int64), ref[3].view(np.int64))


def test_big_phi_values(eq400):
    p1, p2 = big_phi(np.array([1.0, 1.0]), eq400)
    assert p1 == pytest.approx(np.exp(-1.0) / eq400.lambda1, abs=1e-12)
    assert p2 == pytest.approx(eq400.lambda2 * (np.e - 2.0), abs=1e-12)
    assert p1 == pytest.approx(0.3753, abs=1e-3)
    assert p2 == pytest.approx(0.7328, abs=1e-3)


@given(st.floats(-5, 5))
@settings(max_examples=60)
def test_phi_big_phi_relations(r):
    # Phi1(r) = -phi1(r) + r/lambda1 and Phi2(r) = phi2(r) - lambda2*r
    lam1, lam2 = 0.98, 1.02

    class _E:
        lambda1, lambda2 = lam1, lam2

    eta = np.array([r, r])
    p1, p2 = phi(eta, _E)
    P1, P2 = big_phi(eta, _E)
    assert P1 == pytest.approx(-p1 + r / lam1, abs=1e-12, rel=1e-12)
    assert P2 == pytest.approx(p2 - lam2 * r, abs=1e-12, rel=1e-12)
    assert P1 >= 0 and P2 >= 0


def test_gains_a_validation_message():
    with pytest.raises(GainConstraintError, match="0.0416"):
        GainsA(eps=0.2, beta=0.01)
    with pytest.raises(GainConstraintError, match="eps > 0"):
        GainsA(eps=-0.1, beta=0.5)
    GainsA(eps=0.2, beta=0.042)  # just above the bound


def test_gains_b_validation(eq400):
    with pytest.raises(GainConstraintError, match="u_star"):
        GainsB(eps=0.2, beta=0.6, delta=0.2).validate(eq400)
    with pytest.raises(GainConstraintError, match="delta"):
        GainsB(eps=0.01, beta=0.13, delta=0.0)
    GAINS_B.validate(eq400)


def test_control_a_equilibrium_input(eq400):
    assert control_A(np.zeros(2), GAINS_A, eq400) == pytest.approx(eq400.u_star, abs=1e-15)


def test_control_a_hand_values(eq400):
    # hand arithmetic: u = u* + beta*(phi1 + 1.2*phi2)
    eta = np.array([1.57, -1.41])
    p1 = (1.0 - np.exp(-1.57)) / eq400.lambda1
    p2 = eq400.lambda2 * (np.exp(-1.41) - 1.0)
    expected = 0.15 + 0.6 * (p1 + 1.2 * p2)
    assert control_A(eta, GAINS_A, eq400) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.080, abs=1e-3)
    swapped = control_A(np.array([-1.41, 1.57]), GAINS_A, eq400)
    # the two-decimal display value 1.050 comes from rounding lambda to
    # (0.98, 1.02); with the converged lambdas the law gives 1.0511
    p1s = (1.0 - np.exp(1.41)) / eq400.lambda1
    p2s = eq400.lambda2 * (np.exp(1.57) - 1.0)
    assert swapped == pytest.approx(0.15 + 0.6 * (p1s + 1.2 * p2s), abs=1e-12)
    assert swapped == pytest.approx(1.050, abs=2e-3)


def test_control_a_monotone(eq400):
    rng = np.random.default_rng(0)
    for _ in range(50):
        eta = rng.uniform(-3, 3, size=2)
        base = control_A(eta, GAINS_A, eq400)
        assert control_A(eta + np.array([0.1, 0.0]), GAINS_A, eq400) > base
        assert control_A(eta + np.array([0.0, 0.1]), GAINS_A, eq400) > base


def test_control_b_equilibrium_input(eq400):
    assert control_B(np.zeros(2), GAINS_B, eq400) == pytest.approx(eq400.u_star, abs=1e-15)


def test_control_b_hand_value(eq400):
    # phi2 = 0 at eta2 = 0, so u = u* + beta*phi1/delta
    p1 = (1.0 - np.exp(-1.0)) / eq400.lambda1
    expected = 0.15 + 0.13 * p1 / 0.2
    assert control_B(np.array([1.0, 0.0]), GAINS_B, eq400) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.5693, abs=1e-3)


def test_control_b_floor(eq400):
    floor = control_B_floor(GAINS_B, eq400)
    assert floor == pytest.approx(0.0098, abs=1e-4)
    assert floor > 0


@given(
    st.floats(-10, 10), st.floats(-10, 10),
    st.floats(0.001, 0.1), st.floats(0.0, 0.09), st.floats(0.01, 1.0),
)
@settings(max_examples=300)
def test_control_b_stays_positive(e1, e2, eps, beta, delta):
    class _E:
        lambda1, lambda2, u_star = 0.98, 1.02, 0.15

    gains = GainsB(eps=eps, beta=beta, delta=delta)
    if eps * _E.lambda2 + beta >= _E.u_star:
        return  # constraint violated; positivity not claimed
    u = control_B(np.array([e1, e2]), gains, _E)
    assert u > 0.0
    assert u >= _E.u_star - eps * _E.lambda2 - beta - 1e-12


def test_control_b_positive_dense_grid(eq400):
    rng = np.random.default_rng(1)
    etas = rng.uniform(-10, 10, size=(100_000, 2))
    u = control_B(etas, GAINS_B, eq400)
    assert np.all(u > 0.0)
    assert u.min() >= control_B_floor(GAINS_B, eq400) - 1e-12


# the laws, each with the gains of its reference runs
LAWS = {
    "control_a": ControllerSpec(kind="control_a", eps=0.2, beta=0.6),
    "control_b": ControllerSpec(kind="control_b", eps=0.01, beta=0.13, delta=0.2),
    "measured": ControllerSpec(kind="measured", eps=0.2, beta=0.6),
}


def law_states(which: str, eps: float, eq, n: int = 20_000):
    """n states (n, 2) of one kind: uniform in [-5, 5]^2; in the clamp region,
    |eta_i| in (700, 1000), plus the clamp edges; or about the curve
    phi_1 + (1 + eps)*phi_2 = 0, where control B leaves its saturated mode."""
    rng = np.random.default_rng(7)
    if which == "uniform":
        return rng.uniform(-5, 5, size=(n, 2))
    if which == "clamp":
        etas = rng.uniform(700, 1000, size=(n, 2)) * rng.choice([-1.0, 1.0], size=(n, 2))
        edge = [700.0, np.nextafter(700.0, 0.0), np.nextafter(700.0, 1e3)]
        return np.concatenate([etas, [[s1 * a, s2 * b] for a in edge for b in edge
                                      for s1 in (-1, 1) for s2 in (-1, 1)]])
    # phi_2 = -phi_1/(1 + eps) solved for eta2, then moved by a few ulps to 1e-9
    e1 = rng.uniform(-1.5, 5, size=n)
    phi1 = -np.expm1(-e1) / eq.lambda1
    e2 = np.log1p(-phi1 / ((1.0 + eps) * eq.lambda2))
    e2 = e2 + rng.choice([0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9], size=n)
    return np.stack([e1, e2], axis=-1)


@pytest.mark.parametrize("kind, which", [
    *((kind, which) for kind in ("control_a", "control_b")
      for which in ("uniform", "clamp", "varphi_zero")),
    ("measured", "uniform"),
])
def test_eta_laws_round_alike_alone_and_in_a_batch(eq400, kind, which):
    # the march evaluates a law on one state's floats, the public law on
    # arrays; a trajectory and the analysis of its states agree only if both
    # forms round alike.  The measured law also takes each state's sensor
    # factors r, and the public law the outputs y = e^eta * r
    spec = LAWS[kind]
    bound = BoundController(spec, eq400)
    etas = law_states(which, spec.eps, eq400)
    assert np.all(np.isfinite(etas))
    if kind == "measured":
        r = np.random.default_rng(8).uniform(0.05, 20.0, size=etas.shape)
        alone = [bound.u_from_state(e1, e2, r1, r2)
                 for (e1, e2), (r1, r2) in zip(etas.tolist(), r.tolist())]
        law = control_measured(np.exp(etas) * r, bound.sensors, GAINS_A, eq400)
    else:
        alone = [bound.u_from_eta(e1, e2) for e1, e2 in etas.tolist()]
        # far out, control B's square overflows, as in the march, which mutes
        # overflow; a float overflows silently
        with np.errstate(over="ignore"):
            law = {"control_a": lambda: control_A(etas, GAINS_A, eq400),
                   "control_b": lambda: control_B(etas, GAINS_B, eq400)}[kind]()
    assert all(type(u) is float for u in alone)
    assert np.array_equal(law, np.array(alone))
    if which == "varphi_zero" and kind == "control_b":
        phi1, phi2 = phi(etas, eq400)
        varphi = phi1 + (1.0 + spec.eps) * phi2
        assert (varphi < 0).any() and (varphi >= 0).any()


def test_control_in_x_composes(setup400):
    # control A on population profiles: Pi functionals, then the eta law
    eq = setup400.eq
    spec = ControllerSpec(kind="control_a", eps=GAINS_A.eps, beta=GAINS_A.beta)
    bound = BoundController(spec, eq)

    def u_of_x(x):
        return bound.u_from_eta(*np.log(pi_functional(x, setup400.adj)))

    state = ic_from_spec(ICSpec(kind="FQ"), eq)
    ts = to_transformed(state, eq, setup400.adj)
    expected = control_A(ts.eta, GAINS_A, eq)
    assert u_of_x(state.x) == pytest.approx(expected, abs=1e-6)
    assert u_of_x(eq.x_star) == pytest.approx(
        eq.u_star, abs=1e-12
    )
    ln2 = np.log(2.0)
    assert u_of_x(2 * eq.x_star) == pytest.approx(
        control_A(np.array([ln2, ln2]), GAINS_A, eq), abs=1e-12
    )


def test_sensor_equilibrium_pairings(setup400):
    eq, ks, grid = setup400.eq, setup400.kernels, setup400.grid
    # c1 = g2 collapses y1* to lambda1; c_i = k_i gives the newborn densities
    sens = sensor_equilibrium(ks.g[::-1], eq)
    assert sens.y_star[0] == pytest.approx(eq.lambda1, rel=1e-12)
    assert sens.y_star[1] == pytest.approx(eq.lambda2, rel=1e-12)
    sens_birth = sensor_equilibrium(ks.k, eq)
    assert sens_birth.y_star[0] == pytest.approx(eq.x0_star[0], rel=1e-9)
    assert sens_birth.y_star[1] == pytest.approx(eq.x0_star[1], rel=1e-9)


def test_sensor_equilibrium_both_routes_agree(setup400):
    eq, grid = setup400.eq, setup400.grid
    rng = np.random.default_rng(9)
    for _ in range(5):
        c1 = rng.uniform(0.0, 2.0, size=grid.n_nodes)
        c2 = rng.uniform(0.0, 2.0, size=grid.n_nodes)
        sens = sensor_equilibrium(np.array([c1, c2]), eq)
        y1_cf, y2_cf = sensor_equilibrium_closed_form(c1, c2, eq)
        assert sens.y_star[0] == pytest.approx(y1_cf, rel=1e-8)
        assert sens.y_star[1] == pytest.approx(y2_cf, rel=1e-8)


def test_control_measured_values(setup400):
    eq, ks, grid = setup400.eq, setup400.kernels, setup400.grid
    sens = sensor_equilibrium(ks.g[::-1], eq)
    assert control_measured(sens.y_star, sens, GAINS_A, eq) == pytest.approx(
        eq.u_star, abs=1e-14
    )
    # exact-state case: with a flat shape history the approximation is exact
    eta = np.array([0.4, -0.3])
    x1 = eq.x_star[0] * np.exp(eta[0])
    x2 = eq.x_star[1] * np.exp(eta[1])
    y1 = quad(sens.c[0] * x1, grid)
    y2 = quad(sens.c[1] * x2, grid)
    assert control_measured([y1, y2], sens, GAINS_A, eq) == pytest.approx(
        control_A(eta, GAINS_A, eq), abs=1e-9
    )
    # saturation: y1 -> infinity drives the first term to beta/lambda1
    big = control_measured(sens.y_star * [1e12, 1.0], sens, GAINS_A, eq)
    assert big == pytest.approx(eq.u_star + GAINS_A.beta / eq.lambda1, abs=1e-9)
    with pytest.raises(ValueError, match="positive"):
        control_measured([-1.0, 1.0], sens, GAINS_A, eq)


def test_bound_controller_dispatch(setup400):
    eq = setup400.eq
    state = ic_from_spec(ICSpec(kind="FQ"), eq)
    e1, e2 = to_transformed(state, eq, setup400.adj).eta.tolist()
    for kind in ("open_loop", "control_a", "control_b"):
        spec = (
            ControllerSpec(kind=kind, eps=0.01, beta=0.13, delta=0.2)
            if kind == "control_b"
            else ControllerSpec(kind=kind)
        )
        bound = BoundController(spec, eq)
        assert bound.sensors is None
        assert np.isfinite(bound.u_from_eta(e1, e2))
        with pytest.raises(GainConstraintError, match="acts on eta alone"):
            bound.u_from_state(e1, e2, 1.0, 1.0)
    for sensor in SENSORS:
        bound = BoundController(ControllerSpec(kind="measured", sensor=sensor), eq)
        # the state's sensor outputs, and its factors: the outputs over e^eta
        y = row_dot(state.x, bound.weights)
        r1, r2 = (y / np.exp([e1, e2])).tolist()
        u = bound.u_from_state(e1, e2, r1, r2)
        assert u == pytest.approx(control_measured(y, bound.sensors, bound.gains_a, eq),
                                  rel=1e-12)
        assert bound.sensors.y_star[0] > 0 and bound.sensors.y_star[1] > 0
        with pytest.raises(GainConstraintError, match="sensor factors"):
            bound.u_from_eta(e1, e2)
        # e^-800 underflows to 0, and so does the prey's output
        with pytest.raises(NumericalError, match="strictly positive") as err:
            bound.u_from_state(-800.0, e2, r1, r2)
        assert err.value.reason == "measurement_nonpositive"
    with pytest.raises(GainConstraintError, match="unknown controller kind"):
        ControllerSpec(kind="bogus")
    with pytest.raises(GainConstraintError, match="sensor"):
        BoundController(ControllerSpec(kind="measured", sensor="sonar"), eq)
