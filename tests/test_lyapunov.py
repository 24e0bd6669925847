from types import SimpleNamespace

import numpy as np
import pytest

from predprey.acceptance import bisect_scale
from predprey.controllers import ControllerSpec, GainsA, GainsB, control_A, phi
from predprey.errors import GainConstraintError, NumericalError
from predprey.lyapunov import (
    _curve_stationary_eta1,
    _h_sums,
    closed_loop_jacobian,
    constraint_curve,
    control_b_discriminant,
    decrease_rate,
    dini_check,
    find_sigma,
    g_fn,
    gamma_circ,
    gamma_lower_bounds,
    h_fn,
    lambda_min_q,
    level_contour,
    level_ray_bound,
    lyap_config_for,
    q_matrix,
    region_membership,
    roa_estimate,
    v0,
    v1,
    v_full,
    verify_level_set,
)
from predprey.equilibrium import compute_equilibrium
from predprey.model import AgeGrid, build_kernels, cumulative, quad
from predprey.simulate import ICSpec, SimConfig, build_setup, simulate_transformed

from oracles import (
    closed_loop_rhs,
    conservation_check,
    contraction_integral,
    fd_jacobian,
    g_decrease_violations,
    h_term_loop,
    hyperbola_boundary,
    sampled_roa_min,
    zero_history,
)

GA = dict(eps=0.2, beta=0.6)
GB = dict(eps=0.01, beta=0.13, delta=0.2)


@pytest.fixture(scope="module")
def cfg2(setup400):
    return lyap_config_for(ControllerSpec(kind="control_a", **GA), setup400.eq,
                           setup400.sigma)


@pytest.fixture(scope="module")
def cfg4(setup400):
    return lyap_config_for(ControllerSpec(kind="control_b", **GB), setup400.eq,
                           setup400.sigma)


# ---------------------------------------------------------------------------
# scalar functions


def test_v0_v1_at_origin(eq400):
    assert v0(np.zeros(2), eq400) == 0.0
    assert v1(np.zeros(2), 0.2, eq400) == 0.0


def test_v1_degenerates_to_v0(eq400):
    eta = np.array([0.7, -0.4])
    assert v1(eta, 0.0, eq400) == pytest.approx(v0(eta, eq400), rel=1e-14)


def test_v0_sum_value(eq400):
    val = v0(np.array([1.0, 1.0]), eq400)
    expected = np.exp(-1.0) / eq400.lambda1 + eq400.lambda2 * (np.e - 2.0)
    assert val == pytest.approx(expected, rel=1e-12)
    assert val == pytest.approx(1.108, abs=2e-3)


def test_v1_weighted_value(eq400):
    val = v1(np.array([1.0, 1.0]), 0.2, eq400)
    expected = np.exp(-1.0) / eq400.lambda1 + 1.2 * eq400.lambda2 * (np.e - 2.0)
    assert val == pytest.approx(expected, rel=1e-12)
    assert val == pytest.approx(1.2546, abs=2e-3)


def test_q_matrix_reference_gains():
    q = q_matrix(0.2, 0.6)
    assert q[0, 0] == pytest.approx(0.6)
    assert q[1, 1] == pytest.approx(0.864)
    assert abs(q[0, 1]) == pytest.approx(0.62)
    assert q[0, 1] == q[1, 0]
    assert lambda_min_q(0.2, 0.6) == pytest.approx(0.0981, abs=1e-4)


def test_q_matrix_defines_the_decrease(eq400):
    # the quadratic form must reproduce dV1/dt exactly along the closed loop
    gains = GainsA(**GA)
    q = q_matrix(**GA)
    rng = np.random.default_rng(12)
    for eta in rng.uniform(-2.5, 1.8, size=(60, 2)):
        p1, p2 = phi(eta, eq400)
        u = control_A(eta, gains, eq400)
        v1dot = p1 * (eq400.u_star - u - p2) + (1 + GA["eps"]) * p2 * (
            eq400.u_star - u + p1
        )
        pv = np.array([p1, p2])
        assert v1dot == pytest.approx(-pv @ q @ pv, abs=1e-10, rel=1e-10)


def test_q_matrix_rejects_bad_gains():
    with pytest.raises(GainConstraintError):
        q_matrix(0.2, 0.01)


def test_lambda_min_special_beta():
    # at beta = eps/(2(1+eps)) the form is diagonal with eigenvalues
    # {eps/(2(1+eps)), eps(1+eps)/2}; the smaller one equals beta itself
    for eps in (0.1, 0.2, 1.0):
        beta = eps / (2.0 * (1.0 + eps))
        q = q_matrix(eps, beta)
        assert q[0, 1] == pytest.approx(0.0, abs=1e-15)
        eigs = np.sort(np.linalg.eigvalsh(q))
        assert lambda_min_q(eps, beta) == pytest.approx(eigs[0], abs=1e-13)
        assert eigs[0] == pytest.approx(eps / (2.0 * (1.0 + eps)), abs=1e-13)
        assert eigs[1] == pytest.approx(eps * (1.0 + eps) / 2.0, abs=1e-13)


def test_lambda_min_matches_eigensolve_on_grid():
    worst = 0.0
    for eps in np.linspace(0.05, 2.0, 50):
        beta_lo = eps / (4.0 * (1.0 + eps))
        for beta in np.linspace(1.01, 4.0, 50) * beta_lo:
            lam = lambda_min_q(eps, beta)
            ev = np.linalg.eigvalsh(q_matrix(eps, beta))[0]
            worst = max(worst, abs(lam - ev))
            # the discriminant under the root stays real and positive
            c = 1.0 + (1.0 + eps) ** 2
            arg = beta**2 * c**2 - eps * (4.0 * (1.0 + eps) * beta - eps)
            floor = (eps * ((1.0 + eps) ** 2 - 1.0) / ((1.0 + eps) ** 2 + 1.0)) ** 2
            assert arg >= floor - 1e-15
    assert worst <= 1e-12


def test_h_small_values():
    assert h_fn(0.0) == 0.0
    # leading series terms p^2/2 + p^3/3 + 7p^4/48 of the integral
    assert h_fn(1e-12) == pytest.approx(0.5e-24, rel=1e-12)
    assert h_fn(1e-3) == pytest.approx(0.5e-6 + 1e-9 / 3.0 + 7e-12 / 48.0, rel=1e-9)


def test_h_one_matches_fine_simpson_oracle():
    # fixed-step composite Simpson on 200 000 intervals as an independent oracle
    for p in (1e-6, 0.1, 1.0, 5.0, 20.0, 43.0, 60.0):
        z = np.linspace(0.0, p, 200_001)
        f = np.zeros_like(z)
        f[1:] = np.expm1(z[1:]) ** 2 / z[1:]
        oracle = (z[1] - z[0]) / 3.0 * (
            f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum()
        )
        assert h_fn(p) == pytest.approx(oracle, rel=1e-12)
    assert h_fn(1.0) == pytest.approx(1.048, abs=2e-3)


def test_h_convex_increasing():
    ps = np.linspace(0.0, 5.0, 51)
    vals = h_fn(ps)
    d1 = np.diff(vals)
    assert np.all(d1 > 0)
    assert np.all(np.diff(d1) > 0)


def test_h_many_matches_scalar():
    # each entry of an array sums its own terms, as a scalar does
    ps = np.array([0.0, 0.3, 2.2, 0.3, 4.0, 70.0])
    many = h_fn(ps)
    each = np.array([h_fn(p) for p in ps])
    assert np.array_equal(many, each)
    assert h_fn(ps.reshape(2, 3)).shape == (2, 3)


def test_h_matches_the_term_loop_bitwise():
    # the loop gives every entry the terms its array's largest entry needs;
    # past an entry's own, they fall below half an ulp of its sum.  Single
    # values take one block of terms, and the 3000-entry arrays also the
    # row recursion over the entries whose series still runs
    rng = np.random.default_rng(29)
    for p in rng.uniform(0.0, 350.0, 40):
        assert h_fn(p) == h_term_loop(p)
    mixed = 10.0 ** rng.uniform(-12.0, np.log10(350.0), 3000)
    mixed[::97] = 0.0
    for shape in ((4, 3), (60, 50), (5, 20, 30)):
        x = mixed[:np.prod(shape)].reshape(shape)
        assert np.array_equal(h_fn(x), h_term_loop(x))
    edge = np.array([0.0, np.nan, np.inf, 354.8, 355.0, 400.0, 1e-160, 5e-324])
    assert np.array_equal(h_fn(edge), h_term_loop(edge), equal_nan=True)
    assert h_fn(np.array([])).shape == h_term_loop(np.array([])).shape == (0,)


def test_h_sums_stop_at_each_entrys_own_last_term():
    # h_fn keeps terms past where they still count, so its values cannot show
    # where an entry stops; cut short, each partial sum is the loop's after
    # exactly the entry's own terms, in one block (5 entries) and in the row
    # recursion (2000)
    rng = np.random.default_rng(7)
    for size in (5, 2000):
        q = rng.uniform(20.0, 60.0, size)
        last = np.sort(rng.integers(0, 40, size))[::-1]
        want = np.empty(size)
        for k in np.unique(last):
            want[last == k] = h_term_loop(q[last == k], last=int(k))
        assert np.array_equal(_h_sums(q, last), want)


def test_h_edge_cases():
    # (e^p - 1)^2 overflows just above p = 354.89; h is inf from there on
    assert np.isfinite(h_fn(354.8))
    assert h_fn(355.0) == np.inf
    vals = h_fn(np.array([0.5, np.nan, 400.0, np.inf]))
    assert vals[0] == h_fn(0.5)
    assert np.isnan(vals[1])
    assert np.all(vals[2:] == np.inf)
    assert np.isnan(h_fn(np.nan))
    with pytest.raises(ValueError, match="nonnegative"):
        h_fn(-1e-3)
    with pytest.raises(ValueError, match="nonnegative"):
        h_fn(np.array([1.0, -1.0]))
    assert h_fn(np.array([])).shape == (0,)
    assert type(h_fn(0.5)) is float


def test_g_fn_values(setup400):
    grid = setup400.grid
    sigma = 1.3
    assert g_fn(zero_history(grid)[0], sigma, grid) == 0.0
    up = 0.4 * np.ones(grid.n_nodes)
    assert g_fn(up, sigma, grid) == pytest.approx(0.4 * np.exp(sigma * grid.A), rel=1e-12)
    down = -0.4 * np.ones(grid.n_nodes)
    assert g_fn(down, sigma, grid) == pytest.approx(
        0.4 * np.exp(sigma * grid.A) / 0.6, rel=1e-12
    )


def test_find_sigma_reference_kernel(setup400):
    grid = setup400.grid
    kt = setup400.eq.ktilde[0]
    kappa, sigma = find_sigma(kt, grid)
    assert kappa > 0 and sigma > 0
    # the weighted integral sits just under one at the certified exponent
    kc = cumulative(kt, grid)
    tail = kc[-1] - kc
    z = 1.0 / quad(grid.nodes * kt, grid)
    val = quad(np.abs(kt - z * kappa * tail) * np.exp(sigma * grid.nodes), grid)
    assert 1.0 - 1e-6 <= val < 1.0
    # and the unweighted residual is well below one
    assert quad(np.abs(kt - z * kappa * tail), grid) < 1.0


def test_find_sigma_kappa_minimizes_residual(setup400):
    grid = setup400.grid
    for kt in setup400.eq.ktilde:
        kappa, _ = find_sigma(kt, grid)
        kc = cumulative(kt, grid)
        tail = kc[-1] - kc
        z = 1.0 / quad(grid.nodes * kt, grid)

        def J(k):
            return quad(np.abs(kt - z * k * tail), grid)

        best = J(kappa)
        assert best <= min(J(k) for k in np.geomspace(1e-3, 1e3, 4001))
        assert best <= J(kappa * (1.0 + 1e-9))
        assert best <= J(kappa * (1.0 - 1e-9))


def test_find_sigma_pinned_values():
    # raw exponents of the reference kernels at u* = 0.15, as certified by the
    # earlier golden-section search over kappa
    pinned = {50: 3.161299228668213, 200: 3.164370357990265,
              400: 3.1662344932556152, 800: 3.166225552558899}
    for n, sigma_ref in pinned.items():
        grid = AgeGrid(A=1.0, n_cells=n)
        eq = compute_equilibrium(build_kernels(0.5, 3.0, 0.4, 0.5, 3.0, 0.4, grid), 0.15)
        for kt in eq.ktilde:
            assert find_sigma(kt, grid)[1] == pytest.approx(sigma_ref, rel=1e-12)


@pytest.mark.parametrize("kernel_bars", [(0.5, 3.0, 0.4, 0.5, 3.0, 0.4),
                                         (0.4, 3.2, 0.5, 0.6, 2.8, 0.3)],
                         ids=["reference", "asymmetric"])
def test_setup_sigma_keeps_a_contraction_margin(kernel_bars):
    # V and G use Setup.sigma, a fixed fraction below the certified exponent;
    # there the weighted contraction integral stays well below one (about
    # 0.79 at SIGMA_SAFETY = 0.9, 0.98 at 0.99 and 1 - 1e-6 at 1.0)
    for n in (100, 400):
        grid = AgeGrid(A=1.0, n_cells=n)
        setup = build_setup(build_kernels(*kernel_bars, grid), 0.15)
        for kt, kappa, sigma in zip(setup.eq.ktilde, setup.kappa, setup.sigma):
            assert contraction_integral(kt, kappa, sigma, grid) <= 0.9, n


def test_v_full_additivity(setup400, cfg2):
    eq, grid = setup400.eq, setup400.grid
    rng = np.random.default_rng(2)
    eta = np.array([0.3, -0.2])
    psi1 = rng.uniform(-0.5, 0.8, grid.n_nodes)
    psi2 = rng.uniform(-0.5, 0.8, grid.n_nodes)
    total = v_full(eta, np.array([psi1, psi2]), cfg2, eq)
    tail = cfg2.gamma1 / cfg2.sigma1 * h_fn(g_fn(psi1, cfg2.sigma1, grid))
    tail += cfg2.gamma2 / cfg2.sigma2 * h_fn(g_fn(psi2, cfg2.sigma2, grid))
    assert total - v1(eta, cfg2.eps, eq) == pytest.approx(tail, rel=1e-12)
    assert v_full(np.zeros(2), zero_history(grid), cfg2, eq) == 0.0


# ---------------------------------------------------------------------------
# regions and the level set


def test_region_gradient_origin_and_bounds(setup400, cfg2):
    eq = setup400.eq
    assert bool(region_membership(np.zeros(2), cfg2, eq))
    h1, h2 = cfg2.H1, cfg2.H2
    assert h1 > 0 and h2 > 0
    assert not bool(region_membership(np.array([-h1 - 0.01, 0.0]), cfg2, eq))
    assert not bool(region_membership(np.array([0.0, h2 + 0.01]), cfg2, eq))
    # inside the box, membership is exactly the positivity of control A
    gains = GainsA(**GA)
    e1, e2 = np.meshgrid(np.linspace(-h1, 2.0, 301), np.linspace(-3.0, h2, 301))
    eta = np.stack([e1, e2], axis=-1)
    assert np.array_equal(region_membership(eta, cfg2, eq), control_A(eta, gains, eq) > 0.0)


def test_region_gradient_rejects_boundary_gamma(setup400):
    eq = setup400.eq
    gc = gamma_circ(**GA)
    with pytest.raises(GainConstraintError, match="gamma1"):
        lyap_config_for(
            ControllerSpec(kind="control_a", **GA), eq, setup400.sigma,
            gamma1=gc / eq.lambda1**2,  # exactly the lower bound: H1 = 0
            gamma2=2 * eq.lambda2**2 * gc,
        )


def test_u_zero_curve_consistency(setup400, cfg2):
    # points on the curve make the feedback vanish; above it u > 0
    eq = setup400.eq
    gains = GainsA(**GA)
    assert cfg2.K == -eq.u_star / GA["beta"]
    for e1 in (-0.2, 0.0, 0.5, 1.5):
        e2 = float(constraint_curve(e1, cfg2, eq))
        assert control_A(np.array([e1, e2]), gains, eq) == pytest.approx(0.0, abs=1e-12)
        assert control_A(np.array([e1, e2 + 0.05]), gains, eq) > 0
    # the u = 0 boundary passes below the origin for the reference gains
    assert float(constraint_curve(0.0, cfg2, eq)) < 0.0


def test_region_saturated_origin_and_limit(setup400, cfg4):
    eq = setup400.eq
    assert bool(region_membership(np.zeros(2), cfg4, eq))
    assert cfg4.K == -np.sqrt(cfg4.beta**2 / cfg4.varpi**2 - cfg4.delta**2)
    # as varpi approaches beta/delta the varphi bound tightens to zero
    tight = lyap_config_for(ControllerSpec(kind="control_b", **GB), eq, setup400.sigma,
                            varpi=0.9999 * cfg4.beta / cfg4.delta)
    assert abs(tight.K) < 0.01
    assert abs(cfg4.K) == pytest.approx(np.sqrt(0.13**2 / 0.325**2 - 0.04), abs=1e-12)


def test_hyperbola_consistency(setup400, cfg4):
    # two algebraic routes to the same boundary value at q1 = 0
    eq = setup400.eq
    s = -cfg4.K
    expected = -s / ((1.0 + cfg4.eps) * eq.lambda2)
    assert float(hyperbola_boundary(0.0, cfg4, eq)) == pytest.approx(expected, abs=1e-10)
    # a point on the hyperbola satisfies varphi = -s
    q1 = 0.4
    q2 = float(hyperbola_boundary(q1, cfg4, eq))
    eta = np.array([np.log(1.0 + q1), np.log(1.0 + q2)])
    p1, p2 = phi(eta, eq)
    assert p1 + (1.0 + cfg4.eps) * p2 == pytest.approx(-s, abs=1e-10)
    # and the constraint curve of the saturated mode is that hyperbola
    assert float(constraint_curve(eta[0], cfg4, eq)) == pytest.approx(eta[1], abs=1e-12)


def test_roa_gradient(setup400, cfg2):
    eq = setup400.eq
    res = roa_estimate(cfg2, eq)
    assert res.c_star > 0
    assert res.active_piece == "u_zero"
    assert v1(res.argmin_eta, cfg2.eps, eq) == pytest.approx(res.c_star, rel=1e-9)
    assert verify_level_set(res, cfg2, eq, n_grid=200) == 0


def test_roa_gamma_monotonicity(setup400, cfg2):
    # enlarging the gammas can only grow the box, hence weakly grow c*
    eq = setup400.eq
    base = roa_estimate(cfg2, eq)
    bigger = lyap_config_for(ControllerSpec(kind="control_a", **GA), eq, setup400.sigma,
                             gamma1=4 * cfg2.gamma1, gamma2=4 * cfg2.gamma2)
    grown = roa_estimate(bigger, eq)
    assert grown.c_star >= base.c_star - 1e-12
    # with large gammas the feedback-positivity curve is the active constraint
    assert grown.active_piece == "u_zero"


def test_roa_saturated(setup400, cfg4):
    eq = setup400.eq
    res = roa_estimate(cfg4, eq)
    assert res.c_star > 0
    assert res.active_piece == "phi_bound"
    assert verify_level_set(res, cfg4, eq, n_grid=200) == 0


def _assert_feasible_argmin(res, cfg, eq):
    """The argmin is in the region, gives c*, and lies on its piece to 1e-12."""
    eta = res.argmin_eta
    p1, p2 = phi(eta, eq)
    gap = p1 + (1.0 + cfg.eps) * p2 - cfg.K
    assert eta[0] >= -cfg.H1 - 1e-12 and eta[1] <= cfg.H2 + 1e-12 and gap >= -1e-12
    assert v1(eta, cfg.eps, eq) == res.c_star
    off = {"H1": abs(eta[0] + cfg.H1), "H2": abs(eta[1] - cfg.H2)}.get(res.active_piece, abs(gap))
    assert off <= 1e-12


def test_roa_closed_form_matches_sampled_search(setup400, cfg2, cfg4):
    eq = setup400.eq
    for cfg in (cfg2, cfg4):
        res = roa_estimate(cfg, eq)
        c_ref, arg_ref, piece_ref = sampled_roa_min(cfg, eq)
        assert res.c_star == pytest.approx(c_ref, rel=1e-13)
        assert res.active_piece == piece_ref
        # V1 is flat at its minimum: the sampled argmin is only ~1e-9 accurate
        assert np.max(np.abs(res.argmin_eta - arg_ref)) < 1e-8
        _assert_feasible_argmin(res, cfg, eq)


def _random_lyap_config(mode, rng, setup):
    eq = setup.eq
    if mode == "gradient":
        eps = rng.uniform(0.05, 2.0)
        beta = eps / (4.0 * (1.0 + eps)) * rng.uniform(1.05, 20.0)
        spec, varpi = ControllerSpec(kind="control_a", eps=eps, beta=beta), None
    else:
        eps = rng.uniform(0.001, 0.1)
        beta = rng.uniform(0.01, 0.99 * (eq.u_star - eps * eq.lambda2))
        delta = rng.uniform(0.02, 1.0)
        spec = ControllerSpec(kind="control_b", eps=eps, beta=beta, delta=delta)
        varpi = rng.uniform(0.05, 0.95) * beta / delta
    lo1, lo2 = gamma_lower_bounds(mode, eps, beta, eq, varpi)
    return lyap_config_for(spec, eq, setup.sigma, gamma1=lo1 * rng.uniform(1.05, 20.0),
                           gamma2=lo2 * rng.uniform(1.05, 20.0), varpi=varpi)


@pytest.mark.parametrize("mode", ["gradient", "saturated"])
def test_roa_closed_form_never_above_sampled_search(setup400, mode):
    eq = setup400.eq
    rng = np.random.default_rng(7)
    pieces = set()
    for _ in range(100):
        cfg = _random_lyap_config(mode, rng, setup400)
        res = roa_estimate(cfg, eq)
        c_ref, _, piece_ref = sampled_roa_min(cfg, eq)
        assert res.c_star <= c_ref * (1.0 + 1e-13)
        assert res.active_piece == piece_ref
        _assert_feasible_argmin(res, cfg, eq)
        pieces.add(res.active_piece)
    # the draws reach the minima on the lines as well as on the curve
    assert len(pieces) >= 2


def test_roa_linear_stationary_root(setup400):
    # at beta = u* lambda1/(c - 1) the quadratic of the curve's stationary
    # points loses its leading coefficient; its one root is a = 2/(1 + c)
    eq = setup400.eq
    eps = 0.2
    c = (1.0 + eps) * eq.lambda1 * eq.lambda2
    cfg = lyap_config_for(
        ControllerSpec(kind="control_a", eps=eps, beta=eq.u_star * eq.lambda1 / (c - 1.0)),
        eq, setup400.sigma)
    assert abs(c - 1.0 + cfg.K * eq.lambda1) < 1e-14
    assert _curve_stationary_eta1(cfg, eq) == pytest.approx(
        [np.log(2.0 / (1.0 + c))], rel=1e-14)
    res = roa_estimate(cfg, eq)
    c_ref, _, piece_ref = sampled_roa_min(cfg, eq)
    assert res.c_star == pytest.approx(c_ref, rel=1e-13)
    assert res.active_piece == piece_ref
    _assert_feasible_argmin(res, cfg, eq)
    # an exactly vanishing leading coefficient leaves the linear root alone:
    # c = 2 and K*lambda1 = -1 give 3a - 2 = 0
    unit = SimpleNamespace(lambda1=1.0, lambda2=1.0)
    assert _curve_stationary_eta1(SimpleNamespace(eps=1.0, K=-1.0), unit) == [np.log(2.0 / 3.0)]


def test_level_contour_on_level(setup400, cfg2):
    eq = setup400.eq
    contour = level_contour(0.05, cfg2.eps, eq, n_rays=64)
    vals = v1(contour, cfg2.eps, eq)
    assert np.max(np.abs(vals - 0.05)) < 1e-9
    assert np.allclose(contour[0], contour[-1])


# ---------------------------------------------------------------------------
# decrease along trajectories


def _scaled_ic(setup, cfg, c_star):
    s = float(bisect_scale(setup, cfg, 0.9 * c_star, [[1.0, -1.0]], [[2.0, -2.0]])[0])
    return ICSpec(kind="multiplier", log_offset=(s, -s), log_slope=(2 * s, -2 * s))


def test_dini_decrease_gradient(setup400, cfg2):
    eq = setup400.eq
    ic = _scaled_ic(setup400, cfg2, roa_estimate(cfg2, eq).c_star)
    traj = simulate_transformed(
        setup400,
        SimConfig(t_final=10.0, controller=ControllerSpec(kind="control_a", **GA), ic=ic),
    ).finalize_lyapunov(eq, cfg2)
    assert dini_check(traj, cfg2, eq) <= 1e-2
    assert g_decrease_violations(traj, cfg2) == (0, 0)


def test_dini_decrease_saturated(setup400, cfg4):
    eq = setup400.eq
    ic = _scaled_ic(setup400, cfg4, roa_estimate(cfg4, eq).c_star)
    traj = simulate_transformed(
        setup400,
        SimConfig(t_final=10.0, controller=ControllerSpec(kind="control_b", **GB), ic=ic),
    ).finalize_lyapunov(eq, cfg4)
    assert dini_check(traj, cfg4, eq) <= 1e-2


def test_reduced_model_decrease_control_a(setup400):
    # flat-history run: per-step V1 differences obey the quadratic-form bound
    eq = setup400.eq
    traj = simulate_transformed(
        setup400,
        SimConfig(t_final=8.0, controller=ControllerSpec(kind="control_a", **GA),
                  ic=ICSpec(kind="eta", eta0=(0.8, -0.6))),
    )
    lam = lambda_min_q(**GA)
    p1, p2 = phi(traj.eta, eq)
    w = lam * (p1**2 + p2**2)
    v1_series = v1(traj.eta, GA["eps"], eq)
    dt = np.diff(traj.times)
    viol = np.diff(v1_series) / dt + w[:-1] - 5.0 * dt * (1.0 + np.abs(v1_series[:-1]))
    assert np.max(viol) <= 1e-10


@pytest.mark.parametrize("mode", ["gradient", "saturated"])
def test_level_ray_bound_is_outside_the_level(setup400, cfg2, cfg4, mode):
    # the contour's bisection starts each ray at level_ray_bound, which must
    # reach V1 >= c in every direction: Phi_1 >= (|e1| - 1)/lambda1 and
    # Phi_2 >= lambda2*(|e2| - 1)
    eq = setup400.eq
    cfg = {"gradient": cfg2, "saturated": cfg4}[mode]
    angles = np.random.default_rng(24).uniform(0.0, 2.0 * np.pi, 256)
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    for c in (1e-3, roa_estimate(cfg, eq).c_star, 0.5, 5.0, 50.0):
        r_hi = level_ray_bound(c, cfg.eps, eq, dirs)
        assert np.all(v1(r_hi[:, None] * dirs, cfg.eps, eq) >= c)


def test_level_contour_fails_past_the_eta_clamp(setup100):
    # V1 reads eta clamped to |eta_i| <= 700, so no contour of a level at or
    # past its least value on the clamp's edge lies inside the clamp: such a
    # level fails typed, and just below it the contour is on V1 = c
    eq, eps = setup100.eq, 0.2
    edge = [(700.0, 0.0), (-700.0, 0.0), (0.0, 700.0), (0.0, -700.0)]
    limit = min(float(v1(np.array(point), eps, eq)) for point in edge)
    assert limit == pytest.approx(713.28, abs=0.01)
    c = 0.999 * limit
    contour = level_contour(c, eps, eq, n_rays=128)
    assert np.max(np.abs(v1(contour, eps, eq) / c - 1.0)) <= 1e-14
    for c in (limit, 1000.0):
        with pytest.raises(NumericalError, match="eta clamp") as err:
            level_contour(c, eps, eq, n_rays=128)
        assert err.value.reason == "level_beyond_clamp"


def test_level_sets_change_shape_with_eps(setup400):
    # the weight (1+eps) reshapes the level sets: compare the contour's
    # vertical extents at a common level for two eps choices
    eq = setup400.eq
    c_low = level_contour(0.05, 0.2, eq, n_rays=128)
    c_high = level_contour(0.05, 1.0, eq, n_rays=128)
    top_low = c_low[:, 1].max()
    top_high = c_high[:, 1].max()
    assert top_high < top_low  # heavier predator weight squeezes eta2 upward extent
    assert abs(top_high - top_low) > 0.02


def test_reduced_model_decrease_control_b(setup400):
    # per-step V1 decrease with the saturated law on the flat-history model
    eq = setup400.eq
    traj = simulate_transformed(
        setup400,
        SimConfig(t_final=10.0, controller=ControllerSpec(kind="control_b", **GB),
                  ic=ICSpec(kind="eta", eta0=(1.0, -0.8))),
    )
    p1, p2 = phi(traj.eta, eq)
    varphi = p1 + (1.0 + GB["eps"]) * p2
    neg = np.minimum(0.0, varphi)
    w = GB["eps"] * (1.0 + GB["eps"]) * p2**2 + GB["beta"] * varphi**2 / np.sqrt(
        GB["delta"] ** 2 + neg**2
    )
    v1_series = v1(traj.eta, GB["eps"], eq)
    dt = np.diff(traj.times)
    viol = np.diff(v1_series) / dt + w[:-1] - 5.0 * dt * (1.0 + np.abs(v1_series[:-1]))
    assert np.max(viol) <= 1e-10


def test_conservation_check_open_loop(setup200):
    traj = simulate_transformed(
        setup200,
        SimConfig(t_final=10.0, controller=ControllerSpec(kind="open_loop"),
                  ic=ICSpec(kind="eta", eta0=(1.2, -1.0))),
    ).finalize_lyapunov(setup200.eq)
    assert conservation_check(traj) < 1e-3


def test_g_decrease_open_loop_reference_ics(setup400, cfg2):
    for kind in ("FQ", "SQ"):
        traj = simulate_transformed(
            setup400,
            SimConfig(t_final=10.0, controller=ControllerSpec(kind="open_loop"),
                      ic=ICSpec(kind=kind)),
        )
        assert g_decrease_violations(traj, cfg2) == (0, 0)


def test_decrease_rate_nonnegative(setup400, cfg2, cfg4):
    eq = setup400.eq
    rng = np.random.default_rng(8)
    etas = rng.uniform(-1, 1, size=(50, 2))
    for cfg in (cfg2, cfg4):
        w = decrease_rate(etas, 0.3, 0.2, cfg, eq)
        assert np.all(w >= 0)


# ---------------------------------------------------------------------------
# closed-loop linearizations


def test_jacobian_control_b_reference(eq400):
    gains = GainsB(**GB)
    jac, eigs = closed_loop_jacobian("control_b", gains, eq400)
    k = GB["beta"] / GB["delta"]
    assert k == pytest.approx(0.65)
    assert jac[0, 0] == pytest.approx(-k / eq400.lambda1)
    assert np.all(eigs.real < 0)
    assert control_b_discriminant(gains, eq400) < 0  # oscillatory at delta=0.2


def test_jacobian_control_b_damped_small_delta(eq400):
    gains = GainsB(eps=0.01, beta=0.13, delta=0.01)
    _, eigs = closed_loop_jacobian("control_b", gains, eq400)
    assert control_b_discriminant(gains, eq400) > 0
    assert np.all(np.abs(eigs.imag) < 1e-12)
    assert np.all(eigs.real < 0)


def test_jacobian_control_b_zero_beta_hurwitz(eq400):
    gains = GainsB(eps=0.01, beta=0.0, delta=0.2)
    jac, eigs = closed_loop_jacobian("control_b", gains, eq400)
    assert jac[0, 0] == 0.0
    assert np.all(eigs.real < 0)


def test_jacobians_match_finite_differences(eq400):
    for kind, gains in (("control_a", GainsA(**GA)), ("control_b", GainsB(**GB))):
        jac, _ = closed_loop_jacobian(kind, gains, eq400)
        fd = fd_jacobian(closed_loop_rhs(kind, gains, eq400), np.zeros(2))
        assert np.max(np.abs(jac - fd)) < 1e-6


def test_jacobian_control_a_stable(eq400):
    _, eigs = closed_loop_jacobian("control_a", GainsA(**GA), eq400)
    assert np.all(eigs.real < 0)
