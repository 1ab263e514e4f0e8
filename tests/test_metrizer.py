import math

import numpy as np
import pytest

from berwald.geodesic_engine import StepFailure, integrate_ode
from berwald.geometry_core import (ConnectionProfile, TangentPoint,
                                   curvature_profile, sample_tangent_points)
from berwald.metrizer import (DeltaVanishes, LambdaEqualsOne, LambdaNotConstant,
                              MetrizerError, MuNotConstant, NotClosed, NotRiemannMetrizable,
                              PathDependent, PotentialSystem, RiemannForm,
                              SingularQuadratic, _base_point, _grid_probes, build_class3,
                              build_class4, build_class5, build_exponential,
                              build_power_law, class3_delta, class5_det_formula,
                              path_integral)
from berwald.scalar_field import DomainError, ScalarField
from berwald.verifier import check_horizontal_constancy, levi_civita_roundtrip

from conftest import (class5_broken_ricci, class5_curved_block, default_grid,
                      ex1_admissible, ex1_paper_L, ex2_paper_L, exp_admissible,
                      exp_paper_L, exponential_example, flat_cartesian,
                      flat_spherical, horizontal_residual, power_law_nonsymmetric,
                      power_law_symmetric)
from generators import make_class3, make_class5


@pytest.fixture(scope="module")
def exp_form():
    return build_exponential(exponential_example(), default_grid())


@pytest.fixture(scope="module")
def c3_forms():
    conn, meta = make_class3(41)
    fins, riem = build_class3(conn, default_grid(), "identity")
    return conn, fins, riem


class TestPathIntegral:
    def test_zero_form(self):
        assert path_integral("0", "0", (0, 0), (1, 2)) == 0.0

    def test_exact_potential_tr(self):
        val = path_integral("r", "t", (0, 0), (1, 2))
        assert val == pytest.approx(2.0, abs=1e-10)

    def test_single_variable(self):
        val = path_integral("2*t", "0", (0, 0), (3, 5))
        assert val == pytest.approx(9.0, abs=1e-10)

    def test_not_closed(self):
        with pytest.raises(NotClosed):
            path_integral("r*r", "0", (0, 0), (1, 1))

    def test_matches_potential_system(self):
        pots = PotentialSystem(["psi"], ["cos(t) * r"], ["sin(t) + 2 * r"], (0.3, 0.4))
        quad = path_integral("cos(t) * r", "sin(t) + 2 * r", (0.3, 0.4), (1.7, 2.1))
        transported = pots.values(1.7, 2.1)["psi"]
        assert transported == pytest.approx(quad, abs=1e-9)
        # exact potential: sin(t) r + r^2
        exact = (math.sin(1.7) * 2.1 + 2.1 ** 2) - (math.sin(0.3) * 0.4 + 0.4 ** 2)
        assert transported == pytest.approx(exact, abs=1e-10)


class TestPotentialSystem:
    def test_path_residual_of_non_closed_form(self):
        # d(psi) = r dt is not closed: the t-first and r-first transports to
        # (t, r) differ by (t - 0.5)(r - 0.5), relative gap 2/3 at (1.5, 1.5)
        window = [(t, r) for t in np.linspace(0.5, 1.5, 4) for r in np.linspace(0.5, 1.5, 4)]
        probes = _grid_probes(window)

        def system():
            return PotentialSystem(["psi"], ["r"], ["0"], (0.5, 0.5))

        fresh = system()
        assert fresh.path_independence_residual(probes) == pytest.approx(2 / 3, rel=1e-9)
        queried = system()
        for (t, r) in window:
            queried.values(t, r)
        assert queried.path_independence_residual(probes) == pytest.approx(2 / 3, rel=1e-9)


    def test_closedness_is_exact(self, grid):
        # d(psi) = r dt: d_t Q - d_r P = -1
        assert PotentialSystem(["psi"], ["r"], ["0"], (0.5, 0.5)).closedness_residual(
            [(1.0, 1.5)]) == 1.0
        # components enter their own forms with their one-forms as gradients:
        # d(psi) = psi (dt + dr) is closed, d(psi) = psi dt + t psi dr is not (curl psi)
        assert PotentialSystem(["psi"], ["psi"], ["psi"], (0.0, 0.0), [2.0]).closedness_residual(
            [(0.0, 0.0)]) == 0.0
        assert PotentialSystem(["psi"], ["psi"], ["t*psi"], (0.0, 0.0), [2.0]).closedness_residual(
            [(0.0, 0.0)]) == 2.0
        # the class-5 form reads second partials of the k_i; its curl is rounding
        pot = build_class5(class5_curved_block(), grid).meta["potentials"]
        assert pot.closedness_residual(_grid_probes(grid)) < 1e-12

    def test_non_finite_curl_is_an_error_not_a_pass(self):
        """A NaN curl would certify: max() passes over it, and NaN > tol is
        false.  inf - inf in Q raises DomainError instead."""
        pot = PotentialSystem(["psi"], ["0"], ["1e200*1e200*t - 1e200*1e200*t"], (1.0, 1.0))
        with pytest.raises(DomainError, match="jet is not finite at"):
            pot.closedness_residual([(1.0, 1.0)])

    def test_parameter_named_like_a_potential_is_refused(self):
        with pytest.raises(MetrizerError):
            PotentialSystem(["psi"], [ScalarField("psi*t", {"psi": 1.0})], ["0"], (0.0, 0.0))


def _ode_table(pot: PotentialSystem, grid, tol: float = 1e-13) -> dict:
    """The t-first transport to every grid node by scalar ODE legs: one along
    the base line through every t, then one per t through every r."""
    n, (t0, r0) = len(pot.names), pot.base
    ts = sorted({t for t, _ in grid})
    rs = sorted({r for _, r in grid})

    def solve(rhs, y0, s0, nodes):
        out = {s0: np.asarray(y0, dtype=float)}
        for side in ([s for s in nodes if s > s0], [s for s in nodes if s < s0][::-1]):
            if side:
                states, _ = integrate_ode(rhs, y0, [s0] + side, rtol=tol, atol=tol)
                out.update(zip(side, states[1:]))
        return out

    table = {}
    base_line = solve(lambda s, y: np.array(pot._forms(s, r0, y.tolist())[:n]),
                      pot.base_values, t0, ts)
    for t in ts:
        line = solve(lambda s, y: np.array(pot._forms(t, s, y.tolist())[n:]),
                     base_line[t], r0, rs)
        table.update(((t, r), line[r]) for r in rs)
    return table


def _c3_pots(grid):
    return build_class3(make_class3(41)[0], grid)[0].scale_pot


def _general_class4(grid):
    # h' = M h with M != 0: the one-form reads h, so Picard iterates
    return build_class4(ConnectionProfile({1: "1", 5: "1/r"}), grid).scale_pot


class TestPanelTransport:
    """Chebyshev-panel transport against scalar ODE legs, and its fallback."""

    @pytest.mark.parametrize("build", [
        lambda g: build_power_law(power_law_nonsymmetric(3.0), g).scale_pot,
        lambda g: build_exponential(exponential_example(), g).scale_pot,
        _c3_pots,
        lambda g: build_class4(flat_cartesian(), g).scale_pot,
        _general_class4,
        lambda g: build_class5(class5_curved_block(), g).scale_pot,
    ], ids=["power_law", "exponential", "class3", "flat_class4", "general_class4", "class5"])
    def test_table_matches_ode_sweep(self, build):
        grid = default_grid(5)
        pot = build(grid)
        ref = _ode_table(pot, grid)
        got = np.array([[pot.values(t, r)[n] for n in pot.names] for (t, r) in grid])
        want = np.array([ref[q] for q in grid])
        scale = 1.0 + np.max(np.abs(want), axis=0)
        assert np.max(np.abs(got - want) / scale) < 1e-11

    def test_pole_ends_in_step_failure(self):
        pot = PotentialSystem(["psi"], ["1/(t-1.2)"], ["0"], (1.0, 1.0))
        with pytest.raises(StepFailure, match="at s = 1.2"):
            pot.values(1.5, 1.0)

    def test_overflow_is_a_located_domain_error(self):
        # the derivative exp(800 t) nears the float maximum at t = 0.887
        pot = PotentialSystem(["psi"], ["exp(800*t)"], ["0"], (0.88, 1.0))
        with pytest.raises(DomainError, match=r"psi overflows near \(t, r\) = \(0\.88"):
            pot.values(1.0, 1.0)
        pot = PotentialSystem(["psi"], ["exp(800*t)"], ["exp(800*r)"], (0.5, 1.0))
        with pytest.raises(DomainError,
                           match=r"one-form of psi overflows at \(t, r\) = \(0\.5, 1\)"):
            pot.values(1.5, 1.0)

    def test_off_probe_values_do_not_depend_on_query_order(self):
        grid = default_grid(5)
        # clusters nearer to each other than to any probe: a value that
        # continued from the previous query would depend on the order
        points = [(2.2, 1.3), (2.15, 1.25), (2.1, 1.2), (0.75, 1.3), (0.7, 1.25),
                  (1.3, 2.2), (1.2, 2.25)]

        def certified():
            pot = PotentialSystem(["psi"], ["cos(t)*r + r^2*exp(t)"],
                                  ["sin(t) + 2*r*exp(t)"], _base_point(grid))
            pot.certify(_grid_probes(grid))
            return pot

        forward, backward = certified(), certified()
        a = [forward.values(*q)["psi"] for q in points]
        b = [backward.values(*q)["psi"] for q in points[::-1]][::-1]
        assert a == b


class TestPowerLaw:
    def test_example1_lambda_rho_scale(self, grid):
        form = build_power_law(power_law_nonsymmetric(3.0), grid)
        assert form.lam == pytest.approx(0.5, abs=1e-12)
        for (t, r) in grid[::7]:
            assert form.rho(t, r).value == pytest.approx(4 * r * r, rel=1e-10)
        # the conformal factor integrand vanishes identically: theta == 1
        for (t, r) in grid[::5]:
            assert form.scale_pot.values(t, r)["psi"] == pytest.approx(0.0, abs=1e-12)

    def test_example1_matches_displayed_L_up_to_constant(self, grid, rng):
        conn = power_law_nonsymmetric(3.0)
        form = build_power_law(conn, grid)
        pts = sample_tangent_points(rng, (0.6, 2.4), (0.6, 2.4), 50,
                                    predicate=form.admissible)
        ratios = np.array([form.jet(p).value / ex1_paper_L(p) for p in pts])
        assert np.all(ratios > 0)
        assert float(np.var(ratios)) < 1e-8
        assert ratios.mean() == pytest.approx(3 ** -0.5, rel=1e-10)

    def test_example2_lambda_rho_and_L(self, grid, rng):
        conn = power_law_symmetric()
        form = build_power_law(conn, grid)
        assert form.lam == pytest.approx(0.75, abs=1e-12)
        for (t, r) in grid[::6]:
            assert form.rho(t, r).value == pytest.approx(0.0, abs=1e-12)
        pts = sample_tangent_points(rng, (0.6, 2.4), (0.6, 2.4), 40,
                                    predicate=form.admissible)
        ratios = np.array([form.jet(p).value / ex2_paper_L(p) for p in pts])
        assert float(np.var(ratios)) / ratios.mean() ** 2 < 1e-8

    def test_horizontal_constancy_of_built_forms(self, grid, rng):
        for conn in (power_law_nonsymmetric(3.0), power_law_symmetric()):
            form = build_power_law(conn, grid)
            pts = sample_tangent_points(rng, (0.6, 2.4), (0.6, 2.4), 25,
                                        predicate=form.admissible)
            assert max(horizontal_residual(form, conn, p) for p in pts) < 1e-7

    def test_scale_freedom(self, grid, rng):
        form = build_power_law(power_law_nonsymmetric(3.0), grid)
        doubled = form.scaled(2.0)
        p = sample_tangent_points(rng, (0.8, 2), (0.8, 2), 5,
                                  predicate=form.admissible)[0]
        assert doubled.jet(p).value == pytest.approx(2 * form.jet(p).value, rel=1e-12)

    def test_lambda_not_constant_when_D_degenerates(self, grid):
        # k1 += t*r^2 shifts a1 by 2 t r, so F/D = a1/(a1 - 2) drifts over the grid
        spoiled = ConnectionProfile(
            {1: "2*r*(alpha-2) + t*r^2", 4: "4*alpha*r^3*(alpha-1)", 6: "-2*alpha*r",
             8: "-2*r", 10: "alpha*r"}, params={"alpha": 3.0})
        with pytest.raises(LambdaNotConstant):
            build_power_law(spoiled, grid)

    def test_lambda_equals_one(self, grid):
        # constant k8 makes a5 = 0, hence D = F and lambda = 1 exactly
        conn = ConnectionProfile(
            {1: "2*r*(alpha-2)", 4: "4*alpha*r^3*(alpha-1)", 6: "-2*alpha*r",
             8: "1", 10: "alpha*r"}, params={"alpha": 3.0})
        with pytest.raises(LambdaEqualsOne):
            build_power_law(conn, grid)


class TestExponential:
    def test_mu_matches_closed_form(self, grid, exp_form):
        form = exp_form
        for (t, r) in grid:
            assert form.mu(t, r).value == pytest.approx(
                math.exp(-(r - t) ** 2), rel=1e-9)

    def test_phi_matches_closed_form_after_anchoring(self, grid, exp_form):
        form = exp_form
        t0, r0 = min(grid)
        phi = lambda t, r: math.exp((3 * t * t - 2 * r * t - 1) * math.exp(-(r - t) ** 2))
        anchor = phi(t0, r0)
        for (t, r) in grid:
            built = math.exp(form.scale_pot.values(t, r)["psi"]) * anchor
            assert built == pytest.approx(phi(t, r), rel=1e-8)

    def test_built_L_matches_displayed(self, grid, rng, exp_form):
        conn = exponential_example()
        form = exp_form
        pts = sample_tangent_points(rng, (0.6, 2.4), (0.6, 2.4), 30,
                                    predicate=form.admissible)
        ratios = np.array([form.jet(p).value / exp_paper_L(p) for p in pts])
        assert float(np.var(ratios)) / ratios.mean() ** 2 < 1e-8
        assert max(horizontal_residual(form, conn, p) for p in pts) < 1e-6

    def test_u_degenerate_ray_excluded(self, grid, exp_form):
        form = exp_form
        p = TangentPoint(1.0, 1.5, 1.2, 0.0, 0.7, 0.7, 0.2, 0.1)
        assert not form.admissible(p)

    def test_form_jet_runs_one_abc_program(self, monkeypatch, exp_form):
        calls = []
        abc = exp_form.conn.abc
        monkeypatch.setattr(exp_form.conn, "abc", lambda t, r: calls.append((t, r)) or abc(t, r))
        exp_form.jet(TangentPoint(1.0, 1.5, 1.2, 0.0, 1.0, 0.3, 0.2, 0.1))
        assert len(calls) == 1

    def test_mu_undefined_raises(self, grid):
        # E = b a3 vanishes identically when k8 = 0
        conn = ConnectionProfile({1: "r", 9: "t/3", 10: "t/3"})
        with pytest.raises(MuNotConstant):
            build_exponential(conn, grid)


class TestClass3:
    def test_generated_profiles_round_trip(self, grid):
        for seed in (11, 12):
            conn, meta = make_class3(seed)
            fins, riem = build_class3(conn, grid, "identity")
            assert levi_civita_roundtrip(riem, conn, grid).residual < 1e-8

    def test_potential_K_matches_generator(self, grid):
        conn, meta = make_class3(21)
        fins, riem = build_class3(conn, grid, "identity")
        pots = riem.meta["potentials"]
        t0, r0 = min(grid)
        base = meta["K_closed_form"](t0, r0)
        for (t, r) in grid[::6]:
            assert pots.values(t, r)["K"] == pytest.approx(
                meta["K_closed_form"](t, r) - base, abs=1e-9)

    def test_det_formula(self, grid, rng):
        conn, _ = make_class3(31)
        fins, riem = build_class3(conn, grid, "identity")
        pots = riem.meta["potentials"]
        for _ in range(10):
            t, r = rng.uniform(0.7, 2.3, size=2)
            th = rng.uniform(0.4, 2.6)
            p = TangentPoint(t, r, th, 0.0, 1.0, 0.3, 0.2, -0.4)
            detg = np.linalg.det(riem.jet(p).metric_tensor())
            K = pots.values(t, r)["K"]
            pred = math.sin(th) ** 2 * math.exp(6 * K) * class3_delta(riem, t, r)
            assert detg == pytest.approx(pred, rel=1e-6)

    def test_identity_theta_reproduces_A(self, grid, rng, c3_forms):
        conn, fins, riem = c3_forms
        for _ in range(10):
            t, r = rng.uniform(0.6, 2.4, size=2)
            p = TangentPoint(t, r, 1.1, 0.2, 1.0, 0.4, -0.2, 0.3)
            assert fins.jet(p).value == pytest.approx(riem.jet(p).value, rel=1e-12)

    def test_coefficient_jets_read_each_potential_once(self, monkeypatch, c3_forms):
        _conn, _fins, riem = c3_forms
        pots = riem.scale_pot
        calls = []
        jet2 = pots.jet2
        monkeypatch.setattr(pots, "jet2", lambda *a: calls.append(a) or jet2(*a))
        riem.coefficient_jets(1.23, 1.37)
        assert len(calls) == 3
        vals = pots.values(1.41, 0.93)
        riem.coefficient_jets(1.41, 0.93, vals)
        assert len(calls) == 6

    def test_square_theta_is_not_quadratic(self, grid, c3_forms):
        conn = c3_forms[0]
        fins, _ = build_class3(conn, grid, "square")
        base = (1.3, 1.7, 1.0, 0.0)
        v1 = np.array([1.0, 0.3, 0.2, -0.1])
        v2 = np.array([0.2, -0.5, 0.4, 0.3])
        L = lambda v: fins.jet(TangentPoint(*base, *v)).value
        defect = L(v1 + v2) + L(v1 - v2) - 2 * L(v1) - 2 * L(v2)
        assert abs(defect) > 1e-3  # parallelogram law fails: not quadratic

    def test_square_theta_still_horizontally_constant(self, grid, rng):
        conn, _ = make_class3(41)
        fins, _ = build_class3(conn, grid, "square")
        pts = sample_tangent_points(rng, (0.7, 2.3), (0.7, 2.3), 20,
                                    predicate=fins.admissible)
        assert max(horizontal_residual(fins, conn, p) for p in pts) < 1e-7

    def test_flat_spherical_routes_to_class3(self, grid):
        conn = flat_spherical()
        fins, riem = build_class3(conn, grid, "identity")
        assert levi_civita_roundtrip(riem, conn, grid).residual < 1e-10
        # recovered K = ln r up to the base-point constant
        pots = riem.meta["potentials"]
        t0, r0 = min(grid)
        for (t, r) in grid[::5]:
            assert pots.values(t, r)["K"] == pytest.approx(
                math.log(r / r0), abs=1e-10)

    def test_not_closed_on_class1_input(self, grid):
        with pytest.raises(NotClosed):
            build_class3(power_law_nonsymmetric(3.0), grid)


class TestClass4:
    def test_flat_lorentzian(self, grid):
        A = build_class4(flat_cartesian(), grid, "lorentzian")
        assert A.values(1.3, 2.0) == pytest.approx((1.0, 0.0, -1.0, -1.0))
        k = A.christoffels(1.7, 0.9)
        assert np.max(np.abs(k)) == 0.0

    def test_flat_euclidean_also_metrizes(self, grid):
        A = build_class4(flat_cartesian(), grid, "euclidean")
        assert A.values(1.0, 1.0) == pytest.approx((1.0, 0.0, 1.0, 1.0))
        assert levi_civita_roundtrip(A, flat_cartesian(), grid).residual == 0.0

    def test_k1_only_transport(self, grid):
        conn = ConnectionProfile({1: "1"})
        A = build_class4(conn, grid, "lorentzian")
        t0, r0 = min(grid)
        for (t, r) in grid[::4]:
            att, atr, arr, aw = A.values(t, r)
            assert att == pytest.approx(math.exp(2 * (t - t0)), rel=1e-10)
            assert atr == pytest.approx(0.0, abs=1e-12)
            assert arr == pytest.approx(-1.0, rel=1e-12)
        assert levi_civita_roundtrip(A, conn, grid).residual < 1e-9

    def test_path_dependent_on_curved_block(self):
        # small window keeps e^{r^2} tame; the curvature obstruction is there anyway
        small = [(t, r) for t in np.linspace(0.5, 1.5, 4) for r in np.linspace(0.5, 1.5, 4)]
        with pytest.raises(PathDependent):
            build_class4(class5_curved_block(), small, "lorentzian")

    def test_unknown_signature(self, grid):
        with pytest.raises(ValueError):
            build_class4(flat_cartesian(), grid, "riemannian")


class TestClass5:
    def test_curved_block_reconstruction(self, grid, rng):
        conn = class5_curved_block()
        A = build_class5(conn, grid, C1=1.0, C2=1.0)
        assert levi_civita_roundtrip(A, conn, grid).residual < 1e-10
        pts = sample_tangent_points(rng, (0.6, 2.4), (0.6, 2.4), 25)
        assert max(horizontal_residual(A, conn, p) for p in pts) < 1e-10

    def test_phi_closed_form(self, grid):
        # delta_a A = 0 forces e^{-2 phi} (1 + r^2) = const: phi = ln(1+r^2)/2 + c
        conn = class5_curved_block()
        A = build_class5(conn, grid)
        pot = A.meta["potentials"]
        vals = [pot.values(t, r)["phi"] - 0.5 * math.log(1 + r * r) for (t, r) in grid]
        assert max(vals) - min(vals) < 1e-10

    def test_det_formula(self, grid, rng):
        conn = class5_curved_block()
        A = build_class5(conn, grid, C1=0.7, C2=1.3)
        for _ in range(10):
            t, r = rng.uniform(0.6, 2.4, size=2)
            th = rng.uniform(0.4, 2.6)
            p = TangentPoint(t, r, th, 0.0, 1.0, 0.2, 0.3, 0.1)
            detg = abs(np.linalg.det(A.jet(p).metric_tensor()))
            assert detg == pytest.approx(class5_det_formula(A, conn, t, r, th), rel=1e-6)

    def test_generated_profiles(self, grid):
        for seed in (5, 6):
            conn, _ = make_class5(seed)
            A = build_class5(conn, grid)
            assert levi_civita_roundtrip(A, conn, grid).residual < 1e-8

    def test_not_riemann_metrizable(self, grid):
        with pytest.raises(NotRiemannMetrizable):
            build_class5(class5_broken_ricci(0.1), grid)
        conn, _ = make_class5(5, eps=0.03)
        with pytest.raises(NotRiemannMetrizable):
            build_class5(conn, grid)

    def test_singular_quadratic(self, grid):
        # k4 = r alone gives a3 = 1, a1 = a2 = a4 = 0: a1 a4 - a2 a3 = 0
        conn = ConnectionProfile({4: "r"})
        with pytest.raises(SingularQuadratic):
            build_class5(conn, grid)

    def test_nonzero_constants_required(self, grid):
        with pytest.raises(ValueError):
            build_class5(class5_curved_block(), grid, C1=0.0)


class TestHomogeneityProperty:
    def test_built_forms_are_positively_2_homogeneous(self, grid, rng):
        conn = power_law_nonsymmetric(3.0)
        form = build_power_law(conn, grid)
        pts = sample_tangent_points(rng, (0.7, 2.3), (0.7, 2.3), 10,
                                    predicate=form.admissible)
        for p in pts:
            for s in (0.3, 2.0, 7.5):
                q = TangentPoint(p.t, p.r, p.theta, p.phi, s * p.tdot, s * p.rdot,
                                 s * p.thetadot, s * p.phidot)
                assert form.jet(q).value == pytest.approx(
                    s * s * form.jet(p).value, rel=1e-10)
            # Euler vector field: C(L) = 2L from exact vertical gradients
            jet = form.jet(p)
            cl = p.velocity @ jet.vertical_gradient()
            assert cl == pytest.approx(2 * jet.value, rel=1e-10)
