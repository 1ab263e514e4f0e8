import dataclasses
import math

import numpy as np
import pytest

from berwald.geodesic_engine import integrate_finsler, integrate_spray
from berwald.geometry_core import (ConnectionProfile, TangentPoint,
                                   sample_tangent_points, spray_coefficients)
from berwald.metrizer import (RDOT, TDOT, W2, ExpressionForm, PotentialSystem, RiemannForm,
                              build_class3, build_class4, build_class5, build_exponential,
                              build_power_law)
from berwald.scalar_field import DomainError, Partials, ScalarField
from berwald.verifier import (CheckResult, ResidualReport, berwald_check, check_hessian,
                              check_homogeneity, check_horizontal_constancy, draw_jets,
                              levi_civita_roundtrip, VerificationError)

from conftest import (Scaled, admissible, class5_broken_ricci, class5_curved_block,
                      count_values_at, default_grid, exponential_example, flat_cartesian, nonlinear_connection,
                      power_law_nonsymmetric, power_law_symmetric)
from oracles import (Degenerate, geodesic_agreement, riemann_falsification, sample_jets,
                     signature_observation)


@pytest.fixture(scope="module")
def forms():
    grid = default_grid()
    out = {
        "ex1": (power_law_nonsymmetric(3.0), None),
        "ex2": (power_law_symmetric(), None),
        "flat": (flat_cartesian(), None),
        "c5": (class5_curved_block(), None),
    }
    out["ex1"] = (out["ex1"][0], build_power_law(out["ex1"][0], grid))
    out["ex2"] = (out["ex2"][0], build_power_law(out["ex2"][0], grid))
    out["flat"] = (out["flat"][0], build_class4(out["flat"][0], grid, "lorentzian"))
    out["c5"] = (out["c5"][0], build_class5(out["c5"][0], grid))
    return out


class SimpleQuadratic(ExpressionForm):
    """L = tdot^2 only: degenerate, and not horizontally constant for k1 = 1."""

    def lagrangian(self):
        return TDOT * TDOT


class RandersLike(ExpressionForm):
    """L = (sqrt(tdot^2 + rdot^2 + w^2) + (r/4) tdot)^2: 2-homogeneous and
    non-Berwald (the one-form is not parallel for the product metric)."""

    def domain(self):
        root = (TDOT * TDOT + RDOT * RDOT + W2).call("sqrt")
        return [(root, 0.3), (root + 0.25 * ScalarField("r") * TDOT, 0.2)]

    def lagrangian(self):
        f = (TDOT * TDOT + RDOT * RDOT + W2).call("sqrt") + 0.25 * ScalarField("r") * TDOT
        return f * f


def stretched(p, lam):
    """p with its velocity multiplied by lam."""
    return TangentPoint(p.t, p.r, p.theta, p.phi, *(lam * p.velocity))


class TestSampleJets:
    def test_one_jet_per_admissible_sample(self, forms, rng):
        _, form = forms["ex1"]
        pts = sample_tangent_points(rng, (0.6, 2.4), (0.6, 2.4), 20)
        jets = sample_jets(form, pts)
        assert jets.points == [p for p in pts if admissible(form)(p)]
        assert jets.skipped == len(pts) - len(jets.points) > 0
        for p, value in zip(jets.points, jets.jet.value):
            assert value == pytest.approx(form.jet(p).value, rel=1e-13)

    def test_no_admissible_sample_is_an_error(self, forms):
        _, form = forms["ex1"]
        backwards = TangentPoint(1.2, 1.4, 1.0, 0.0, -1.0, 0.5, 0.2, 0.1)   # tdot < 0
        assert not admissible(form)(backwards)
        with pytest.raises(VerificationError, match="no admissible samples"):
            sample_jets(form, [backwards])


class SqrtScale(ExpressionForm):
    """L = e^psi (tdot^2 + rdot^2 + w^2), psi carried by d psi = sqrt(2 - t) dt
    from (1, 1): no transport reaches t > 2, and such a sample is refused."""

    def __init__(self):
        self.scale_pot = PotentialSystem(["psi"], ["sqrt(2 - t)"], ["0"], (1.0, 1.0))

    def domain(self):
        return [(ScalarField("psi"), -math.inf)]   # psi is NaN where transport fails

    def lagrangian(self):
        return ScalarField("psi").call("exp") * (TDOT * TDOT + RDOT * RDOT + W2)


class SqrtTdot(ExpressionForm):
    """L = sqrt(tdot - 1) (tdot^2 + w^2): its program fails where tdot < 1."""

    def lagrangian(self):
        return (TDOT - 1.0).call("sqrt") * (TDOT * TDOT + W2)


class TestBatchAdmission:
    def test_one_failing_transport_refuses_that_candidate_only(self, rng):
        form = SqrtScale()
        pts = sample_tangent_points(rng, (1.2, 1.9), (0.6, 2.4), 6)
        far = dataclasses.replace(pts[2], t=2.2)
        pts[2] = far
        with pytest.raises(DomainError):
            form.scale_pot.values_at([(p.t, p.r) for p in pts])
        ok, vals = form.admit(pts)
        assert ok == [True, True, False, True, True, True]
        # each candidate read alone: NaN where its transport fails
        assert [math.isnan(v["psi"]) for v in vals] == [not a for a in ok]
        assert [v["psi"] for v in vals if not math.isnan(v["psi"])] == [
            form.scale_pot.values(p.t, p.r)["psi"] for p in pts[:2] + pts[3:]]
        jets = sample_jets(form, pts)
        assert jets.points == pts[:2] + pts[3:] and jets.skipped == 1

    def test_admitted_values_are_the_single_point_values(self, rng):
        form = build_exponential(exponential_example(), default_grid())
        pts = sample_tangent_points(rng, (0.6, 2.4), (0.6, 2.4), 30)
        pts.insert(7, TangentPoint(1.0, 1.5, 1.2, 0.0, 0.701, 0.7, 0.2, 0.1))  # L underflows
        ok, vals = form.admit(pts)
        assert ok == [admissible(form)(p) for p in pts] and not ok[7]
        assert [v["psi"] for v in vals] == [form.scale_pot.values(p.t, p.r)["psi"] for p in pts]

    def test_drawn_jets_match_sampled_jets(self, forms):
        # the samples and jets of one chunked draw equal those of drawing the
        # points first and admitting them one at a time
        conn, form = forms["ex1"]
        jets = draw_jets(form, np.random.default_rng(3), (0.6, 2.4), (0.6, 2.4), 30)
        pts = sample_tangent_points(np.random.default_rng(3), (0.6, 2.4), (0.6, 2.4), 30,
                                    predicate=admissible(form))
        assert jets.points == pts and jets.skipped == 0
        assert np.array_equal(jets.jet.out, sample_jets(form, pts).jet.out)


class TestArrayJets:
    @pytest.mark.parametrize("which", ["ex1", "exponential", "class3", "flat"])
    def test_array_run_matches_per_sample_jets(self, forms, which, rng):
        from generators import make_class3
        if which == "exponential":
            form = build_exponential(exponential_example(), default_grid())
        elif which == "class3":
            form = build_class3(make_class3(51)[0], default_grid(), "square")[0]
        else:
            form = forms[which][1]
        pts = sample_tangent_points(rng, (0.6, 2.4), (0.6, 2.4), 30, predicate=admissible(form))
        jets = sample_jets(form, pts)
        n = 0 if form.scale_pot is None else len(form.scale_pot.names)
        assert jets.points == pts and jets.jet.out.shape == (30, 30 + 2 * n)
        one = np.array([form.jet(p).out for p in pts])
        # each block against its own size at that sample
        for block in (slice(0, 1), slice(1, 5), slice(5, 8), slice(8, 20), slice(20, 30)):
            scale = np.max(np.abs(one[:, block]), axis=1, keepdims=True)
            assert np.all(np.abs(jets.jet.out[:, block] - one[:, block]) <= 1e-13 * scale)

    def test_failing_program_skips_exactly_those_samples(self, rng):
        pts = sample_tangent_points(rng, (0.6, 2.4), (0.6, 2.4), 40)
        jets = sample_jets(SqrtTdot(), pts)
        kept = [p for p in pts if p.tdot > 1.0]
        assert 0 < len(kept) < 40
        assert jets.points == kept and jets.skipped == 40 - len(kept)
        assert np.array_equal(jets.jet.out, np.array([SqrtTdot().jet(p).out for p in kept]))


class ScaledQuadratic(ExpressionForm):
    """L = s(t) (tdot^2 + rdot^2 + w^2) for an expression s in t."""

    def __init__(self, scale):
        self.scale = ScalarField(scale)

    def lagrangian(self):
        return self.scale * (TDOT * TDOT + RDOT * RDOT + W2)


class TestNonFiniteSamples:
    @pytest.mark.parametrize("scale", ["1e307*t^4", "exp(400*t)"])
    def test_samples_whose_jets_leave_the_floats_are_skipped(self, scale, rng):
        """A sample where L or a partial of it is not a finite float (the
        products of 1e307 t^4 (...) overflow; exp(400 t) overflows for t >
        1.775) is skipped, not used, and no check reads it.  A run per
        sample once kept the first kind with inf and NaN partials, which
        every check read as residual 0, and let the second's OverflowError
        out."""
        form = ScaledQuadratic(scale)
        pts = sample_tangent_points(rng, (0.6, 2.4), (0.6, 2.4), 20)
        finite = []
        for p in pts:
            try:
                finite.append(bool(np.isfinite(form.jet(p).out).all()))
            except (DomainError, OverflowError):
                finite.append(False)
        assert 0 < sum(finite) < 20
        jets = sample_jets(form, pts)
        assert jets.points == [p for p, f in zip(pts, finite) if f]
        assert jets.skipped == 20 - sum(finite) and np.isfinite(jets.jet.out).all()
        np.testing.assert_allclose(jets.jet.out, [form.jet(p).out for p in jets.points],
                                   rtol=1e-13, atol=0.0)
        flat = ConnectionProfile({})
        results = [check_homogeneity(jets), check_hessian(jets), berwald_check(jets, flat),
                   check_horizontal_constancy(jets, flat)]
        assert [res.extra["samples_used"] for res in results] == [sum(finite)] * 4

    def test_a_scale_beyond_the_squares_range_still_fails(self):
        """|d L / d y| above about 1e154 overflows a plain norm, whose inf
        scale once read every ratio as 0: 1e307 t^4 (...) passed
        horizontal-constancy against the flat connection with residual 0,
        where t^4 (...) fails it.  The norm with its largest entry factored
        out gives both the same residual; a sample whose scale is still not
        finite is skipped."""
        flat = ConnectionProfile({})
        results = {}
        for scale in ("t^4", "1e307*t^4"):
            pts = sample_tangent_points(np.random.default_rng(0), (0.6, 2.4), (0.6, 2.4), 20)
            jets = sample_jets(ScaledQuadratic(scale), pts)
            assert np.isfinite(jets.scale).all() and jets.skipped + len(jets.points) == 20
            results[scale] = check_horizontal_constancy(jets, flat)
        assert 0 < results["1e307*t^4"].extra["samples_used"] < 20
        assert results["1e307*t^4"].residual == pytest.approx(results["t^4"].residual, rel=1e-12)
        assert not results["1e307*t^4"].passed and not results["t^4"].passed


class TestFormDomains:
    """The test forms state a `domain`, and admit the points that their
    former `admissible` overrides, written out here, admitted."""

    def test_randers_like(self, rng):
        def former(p):
            w2 = p.thetadot ** 2 + p.phidot ** 2 * math.sin(p.theta) ** 2
            root = math.sqrt(p.tdot ** 2 + p.rdot ** 2 + w2)
            return root > 0.3 and root + 0.25 * p.r * p.tdot > 0.2
        slow = [TangentPoint(t, r, 1.0, 0.0, *v) for t, r, *v in
                np.column_stack([rng.uniform(0.6, 2.4, (300, 2)), rng.uniform(-0.4, 0.4, (300, 4))])]
        want = [former(p) for p in slow]
        assert 0 < sum(want) < 300
        assert RandersLike().admit(slow)[0] == want
        assert (sample_tangent_points(np.random.default_rng(9), (0.6, 2.4), (0.6, 2.4), 30,
                                      predicate=admissible(RandersLike()))
                == sample_tangent_points(np.random.default_rng(9), (0.6, 2.4), (0.6, 2.4), 30,
                                         predicate=former))

    def test_sqrt_scale(self, rng):
        form = SqrtScale()

        def former(p):
            try:
                form.scale_pot.values(p.t, p.r)
            except DomainError:
                return False
            return True
        pts = sample_tangent_points(rng, (1.2, 2.6), (0.6, 2.4), 30)
        want = [former(p) for p in pts]
        assert 0 < sum(want) < 30
        assert form.admit(pts)[0] == want == [admissible(form)(p) for p in pts]

    def test_scaled(self, forms):
        _, form = forms["ex1"]
        pts = sample_tangent_points(np.random.default_rng(4), (0.6, 2.4), (0.6, 2.4), 40)
        assert Scaled(form, 37.0).admit(pts) == form.admit(pts)
        assert 0 < sum(form.admit(pts)[0]) < 40


class NotHomogeneous(ExpressionForm):
    """L = tdot^2 + rdot^2 + w^2 + r tdot: degrees 2 and 1 mixed."""

    def lagrangian(self):
        return TDOT * TDOT + RDOT * RDOT + W2 + ScalarField("r") * TDOT


def reference_checks(form, conn, points) -> dict:
    """(residual, sample) of the four form checks, one sample at a time:
    per-point jets, the nonlinear connection and the spray of each sample,
    the worst kept by strict comparison as it is met."""
    worst = {"horizontal": (0.0, None), "homogeneity": (0.0, None),
             "berwald": (0.0, None), "hessian": (math.inf, None)}

    def keep(key, res, p, larger=True):
        if (res > worst[key][0]) if larger else (res < worst[key][0] or worst[key][1] is None):
            worst[key] = (res, tuple(p.state()))
    for p in points:
        jet = form.jet(p)
        y, dv, dh = p.velocity, jet.vertical_gradient(), jet.horizontal_gradient()
        scale = abs(jet.value) + np.linalg.norm(y) * np.linalg.norm(dv)
        N = nonlinear_connection(conn, p)
        for a in range(4):
            keep("horizontal", abs(dh[a] - N[:, a] @ dv) / scale, p)
        keep("homogeneity", abs(y @ dv - 2.0 * jet.value) / scale, p)
        g = jet.metric_tensor()
        rhs = y @ jet.mixed_block() - dh
        G = np.array(spray_coefficients(conn, p))
        keep("berwald", np.max(np.abs(4.0 * g @ G - rhs))
             / (np.max(np.abs(rhs)) + np.max(np.abs(4.0 * g)) * np.max(np.abs(G))), p)
        level = (np.linalg.slogdet(g)[1] + 8.0 * math.log(np.linalg.norm(y))
                 - 4.0 * math.log(abs(jet.value)))
        keep("hessian", level, p, larger=False)
    return worst


class TestArrayChecks:
    """Each check's array pass against its per-sample loop, on inputs where
    the residuals are far from round-off, so the worst sample is unambiguous."""

    def test_form_checks_match_per_sample_loops(self, forms, rng):
        cases = [(power_law_nonsymmetric(2.5), forms["ex1"][1]),   # another connection
                 (ConnectionProfile({}), RandersLike()),
                 (forms["c5"][0], NotHomogeneous())]
        for conn, form in cases:
            pts = sample_tangent_points(rng, (0.8, 2.2), (0.8, 2.2), 25,
                                        predicate=admissible(form))
            jets = sample_jets(form, pts)
            ref = reference_checks(form, conn, pts)
            got = {"horizontal": check_horizontal_constancy(jets, conn),
                   "homogeneity": check_homogeneity(jets),
                   "berwald": berwald_check(jets, conn)}
            for key, res in got.items():
                if ref[key][0] > 1e-6:
                    assert res.residual == pytest.approx(ref[key][0], rel=1e-10)
                    assert res.sample == ref[key][1]
                else:
                    assert res.residual < 1e-12
            hess = check_hessian(jets)
            assert math.log(hess.residual) == pytest.approx(ref["hessian"][0], rel=1e-10)
            assert hess.sample == ref["hessian"][1]

    def test_levi_civita_matches_per_point_formula(self, forms, grid):
        conn, A = forms["flat"]
        bad = RiemannForm(A.att + 0.1 + 0.05 * ScalarField("t") * ScalarField("r"), A.atr,
                          A.arr, A.aw * (1.0 + 0.1 * ScalarField("r")), scale_pot=A.scale_pot)
        worst, where = 0.0, None
        for t, r in grid:
            att, atr, arr, aw = (Partials(*row) for row in bad.coefficient_table([(t, r)])[0])
            B = np.array([[att.value, atr.value], [atr.value, arr.value]])
            dB = [np.array([[att.dt, atr.dt], [atr.dt, arr.dt]]),
                  np.array([[att.dr, atr.dr], [atr.dr, arr.dr]])]
            Binv = np.linalg.inv(B)
            Gam = [[[0.5 * sum(Binv[a, d] * (dB[b][d, c] + dB[c][b, d] - dB[d][b, c])
                               for d in range(2)) for c in range(2)] for b in range(2)]
                   for a in range(2)]
            gw = np.array([aw.dt, aw.dr])
            k = np.zeros(12)
            k[:6] = [Gam[0][0][0], Gam[0][0][1], Gam[0][1][1], Gam[1][0][0], Gam[1][1][1],
                     Gam[1][0][1]]
            k[6:10] = [-0.5 * Binv[0] @ gw, 0.5 * aw.dt / aw.value, 0.5 * aw.dr / aw.value,
                       -0.5 * Binv[1] @ gw]
            k_in = conn.k_values(t, r)
            res = np.max(np.abs(k - k_in)) / (1.0 + np.max(np.abs(k_in)))
            if res > worst:
                worst, where = res, (t, r)
        got = levi_civita_roundtrip(bad, conn, grid)
        assert worst > 1e-2 and got.residual == pytest.approx(worst, rel=1e-12)
        assert got.sample == where


class TestHorizontalConstancy:
    def test_power_law_form(self, forms, rng):
        conn, form = forms["ex1"]
        pts = sample_tangent_points(rng, (0.6, 2.4), (0.6, 2.4), 50,
                                    predicate=admissible(form))
        res = check_horizontal_constancy(sample_jets(form, pts), conn)
        assert res.passed and res.residual < 1e-7

    def test_flat_metric(self, forms, rng):
        conn, A = forms["flat"]
        pts = sample_tangent_points(rng, (0.6, 2.4), (0.6, 2.4), 20)
        res = check_horizontal_constancy(sample_jets(A, pts), conn, tol=1e-10)
        assert res.passed

    def test_negative_control(self, rng):
        conn = ConnectionProfile({1: "1"})
        pts = sample_tangent_points(rng, (0.6, 2.4), (0.6, 2.4), 10)
        res = check_horizontal_constancy(sample_jets(SimpleQuadratic(), pts), conn)
        assert not res.passed
        assert res.residual > 1e-2

    def test_scale_invariance_of_verdict(self, forms, rng):
        conn, form = forms["ex1"]
        pts = sample_tangent_points(rng, (0.6, 2.4), (0.6, 2.4), 20,
                                    predicate=admissible(form))
        r1 = check_horizontal_constancy(sample_jets(form, pts), conn)
        r2 = check_horizontal_constancy(sample_jets(Scaled(form, 37.0), pts), conn)
        assert r1.passed == r2.passed

    def test_residuals_do_not_depend_on_the_scale_of_L(self, forms, rng):
        # a residual divided by 1 + |L| would pass any form made small enough;
        # L -> cL and y -> lambda y move none of the three checks
        from generators import make_class3
        fixtures = list(forms.values()) + [
            (exponential_example(), build_exponential(exponential_example(), default_grid()))]
        class3 = make_class3(51)[0]
        fixtures.append((class3, build_class3(class3, default_grid(), "square")[0]))
        for conn, form in fixtures:
            pts = sample_tangent_points(rng, (0.6, 2.4), (0.6, 2.4), 15,
                                        predicate=admissible(form))
            checks = (lambda jets: check_horizontal_constancy(jets, conn),
                      check_homogeneity, lambda jets: berwald_check(jets, conn))
            for check in checks:
                assert [check(sample_jets(Scaled(form, c), pts)).passed
                        for c in (1e-6, 1.0, 1e6)] == [True] * 3
                assert [check(sample_jets(form, [stretched(p, lam) for p in pts])).passed
                        for lam in (1e-3, 1e3)] == [True] * 2
        conn = ConnectionProfile({1: "1"})
        pts = sample_tangent_points(rng, (0.6, 2.4), (0.6, 2.4), 10)
        for c in (1e-12, 1e-6, 1.0, 1e6):
            res = check_horizontal_constancy(sample_jets(Scaled(SimpleQuadratic(), c), pts),
                                             conn)
            assert not res.passed and res.residual > 1e-2


class TestHessian:
    def test_ex2_determinant_formula(self, forms, rng):
        # The displayed value -(27/16) e^{2 Phi} sin^2(theta) is the determinant
        # of the unnormalized vertical Hessian d^2 L (with g = (1/2) d^2 L as
        # defined, det g carries an extra 2^-4); verified by direct AD of the
        # displayed L.  The Lorentzian sign is the point either way.
        conn, form = forms["ex2"]
        t0, r0 = 0.5, 0.5
        anchored = Scaled(form, math.exp(0.5 * t0 * r0))  # psi(base) = 0
        pts = sample_tangent_points(rng, (0.6, 2.4), (0.6, 2.4), 25,
                                    predicate=admissible(form))
        for p in pts:
            hess = 2.0 * anchored.jet(p).metric_tensor()   # d^2 L
            det = np.linalg.det(hess)
            pred = -(27.0 / 16.0) * math.exp(2 * p.t * p.r) * math.sin(p.theta) ** 2
            assert det == pytest.approx(pred, rel=1e-6)
            assert det < 0

    def test_flat_metric_signature(self, forms, rng):
        _, A = forms["flat"]
        pts = sample_tangent_points(rng, (0.6, 2.4), (0.6, 2.4), 10)
        assert signature_observation(A, pts) == (1, 3)

    def test_ex1_lorentzian_for_alpha_3(self, forms, rng):
        _, form = forms["ex1"]
        pts = sample_tangent_points(rng, (0.6, 2.4), (0.6, 2.4), 25,
                                    predicate=admissible(form))
        assert signature_observation(form, pts) in ((1, 3), (3, 1))

    def test_degenerate_detected(self, rng):
        pts = sample_tangent_points(rng, (0.6, 2.4), (0.6, 2.4), 5)
        res = check_hessian(sample_jets(SimpleQuadratic(), pts))
        assert not res.passed
        with pytest.raises(Degenerate):
            signature_observation(SimpleQuadratic(), pts)


class TestHessianScale:
    def test_quadratic_in_u_alone_is_refused(self, forms, rng):
        # lambda = 0 leaves L = theta u^2, whose vertical Hessian has rank 1
        form = dataclasses.replace(forms["ex1"][1], lam=0.0)
        pts = sample_tangent_points(rng, (0.6, 2.4), (0.6, 2.4), 20,
                                    predicate=admissible(form))
        res = check_hessian(sample_jets(form, pts))
        assert not res.passed and res.residual == 0.0

    def test_verdict_and_residual_do_not_depend_on_the_scale_of_L(self, forms, rng):
        fixtures = [f for _, f in forms.values()]
        fixtures.append(build_exponential(exponential_example(), default_grid()))
        for form in fixtures:
            pts = sample_tangent_points(rng, (0.6, 2.4), (0.6, 2.4), 20,
                                        predicate=admissible(form))
            results = [check_hessian(sample_jets(Scaled(form, c), pts))
                       for c in (1e-6, 1.0, 1e6)]
            assert len({res.passed for res in results}) == 1
            for res in results:
                assert res.residual == pytest.approx(results[1].residual, rel=1e-9)

    def test_exponential_form_certifies_where_L_is_a_normal_float(self, rng):
        form = build_exponential(exponential_example(), default_grid())
        # |u| = 1e-3 passes the floor, but mu v / u^2 is about -4e4: L underflows
        p = TangentPoint(1.0, 1.5, 1.2, 0.0, 0.701, 0.7, 0.2, 0.1)
        assert form.jet(p).value == 0.0 and not admissible(form)(p)
        pts = sample_tangent_points(rng, (0.5, 2.5), (0.5, 2.5), 50,
                                    predicate=admissible(form))
        assert check_hessian(sample_jets(form, pts)).passed


class TestLeviCivitaRoundtrip:
    def test_flat_exact(self, forms, grid):
        conn, A = forms["flat"]
        res = levi_civita_roundtrip(A, conn, grid, tol=1e-10)
        assert res.passed

    def test_class3_roundtrip(self, grid):
        from generators import make_class3
        conn, _ = make_class3(51)
        _, riem = build_class3(conn, grid, "identity")
        assert levi_civita_roundtrip(riem, conn, grid).residual < 1e-6

    def test_corrupted_metric_fails(self, forms, grid):
        conn, A = forms["flat"]
        bad = RiemannForm(A.att + 0.1 + 0.05 * ScalarField("t"), A.atr, A.arr, A.aw,
                          scale_pot=A.scale_pot)
        res = levi_civita_roundtrip(bad, conn, grid)
        assert not res.passed
        assert res.residual > 1e-2


class TestGeodesicAgreement:
    def test_flat_straight_lines(self, forms):
        conn, A = forms["flat"]
        p0 = TangentPoint(1.0, 1.0, math.pi / 2, 0.0, 1.0, 0.5, 0.0, 0.0)
        res = geodesic_agreement(A, conn, p0, T=1.0)
        assert res.passed
        assert res.extra["trajectory_discrepancy"] < 1e-9

    def test_class4_flow_carries_its_potentials(self, forms, monkeypatch):
        # the flat metric h rides in the ODE state: the Euler-Lagrange flow
        # reads the potentials at the start point only
        conn, A = forms["flat"]
        batches = count_values_at(monkeypatch, A.scale_pot)
        p0 = TangentPoint(1.0, 1.0, math.pi / 2, 0.0, 1.0, 0.5, 0.0, 0.0)
        tr_f = integrate_finsler(A, p0, 1.0, 100)
        assert batches == [1]
        tr_a = integrate_spray(conn, p0, 1.0, 100)
        assert float(np.max(np.abs(tr_f.states - tr_a.states))) < 1e-9

    def test_L_drift_reads_every_state_in_one_batch(self, forms, monkeypatch):
        """The potentials at the 100 states of the autoparallel come from one
        `values_at` call; `values`, one one-point `values_at`, runs once, at
        the Finsler flow's start."""
        conn, A = forms["flat"]
        pots = A.scale_pot
        single, values = [], pots.values
        batches = count_values_at(monkeypatch, pots)
        monkeypatch.setattr(pots, "values", lambda t, r: single.append((t, r)) or values(t, r))
        p0 = TangentPoint(1.1, 1.3, math.pi / 2, 0.0, 1.0, 0.5, 0.0, 0.0)
        res = geodesic_agreement(A, conn, p0, T=1.0, n_out=100)
        assert res.passed
        assert single == [(1.1, 1.3)]
        assert batches == [1, 100]

    def test_power_law_dual_integrators(self, forms):
        conn, form = forms["ex1"]
        p0 = TangentPoint(1.0, 2.0, math.pi / 2, 0.0, 0.2, 0.02, 0.01, 0.004)
        res = geodesic_agreement(form, conn, p0, T=0.5)
        assert res.passed
        assert res.extra["trajectory_discrepancy"] < 1e-6
        assert res.extra["L_drift"] < 1e-8


class TestBerwald:
    def test_power_law_is_berwald(self, forms, rng):
        conn, form = forms["ex1"]
        pts = sample_tangent_points(rng, (0.8, 2.2), (0.8, 2.2), 6,
                                    predicate=admissible(form))
        res = berwald_check(sample_jets(form, pts), conn)
        assert res.passed
        assert res.extra == {"samples_used": 6}

    def test_quadratic_form_is_berwald(self, forms, rng):
        conn, A = forms["c5"]
        pts = sample_tangent_points(rng, (0.8, 2.2), (0.8, 2.2), 6)
        assert berwald_check(sample_jets(A, pts), conn).passed

    def test_randers_like_is_not(self, rng):
        pts = sample_tangent_points(rng, (0.8, 2.2), (0.8, 2.2), 8,
                                    predicate=admissible(RandersLike()))
        res = berwald_check(sample_jets(RandersLike(), pts), ConnectionProfile({}))
        assert not res.passed
        assert res.residual > 1e-2

    def test_a_form_is_refused_against_another_connection(self, forms, rng):
        # each form is Berwald for its own connection only: Example 1's
        # (alpha = 3) against alpha = 2.5, and the class-5 metric against
        # the connection with k6 = 0.1 r added
        for (_, form), other in ((forms["ex1"], power_law_nonsymmetric(2.5)),
                                 (forms["c5"], class5_broken_ricci(0.1))):
            pts = sample_tangent_points(rng, (0.8, 2.2), (0.8, 2.2), 20,
                                        predicate=admissible(form))
            res = berwald_check(sample_jets(form, pts), other)
            assert not res.passed
            assert res.residual > 1e-3

    def test_exponential_form_near_the_edge_of_its_domain(self):
        form = build_exponential(exponential_example(), default_grid())
        conn = exponential_example()
        # mu v / u^2 falls to about -240 around p and cond(g) is about 3e8
        # there: the identity needs no solve with g, so p passes on its own
        p = TangentPoint(1.3457195427322641, 1.584350534446866, 0.22440300155037754,
                         0.2562261640364504, 1.1353738708972745, 1.2309547017512195,
                         1.5820194811293216, 0.6394755077903636)
        res = berwald_check(sample_jets(form, [p]), conn)
        assert res.passed and res.residual < 1e-9
        assert res.extra == {"samples_used": 1}


class TestRiemannFalsification:
    def test_class1_and_2_fixtures_have_a_floor(self, rng):
        for conn in (power_law_nonsymmetric(3.0), power_law_symmetric(),
                     exponential_example()):
            res = riemann_falsification(conn, 1.3, 1.7, 1.0, rng)
            assert res.passed
            assert res.residual > 1e-3

    def test_metrizable_fixtures_have_no_floor(self, rng):
        for conn in (class5_curved_block(), flat_cartesian()):
            res = riemann_falsification(conn, 1.3, 1.7, 1.0, rng)
            assert not res.passed  # a quadratic candidate exists
            assert res.residual < 1e-10


class TestResidualReport:
    def test_duplicate_names_rejected(self):
        rep = ResidualReport()
        rep.add(CheckResult("x", 0.0, 1.0, True))
        with pytest.raises(ValueError):
            rep.add(CheckResult("x", 0.0, 1.0, True))

    def test_all_passed_and_failed(self):
        rep = ResidualReport()
        rep.add(CheckResult("a", 0.0, 1.0, True))
        rep.add(CheckResult("b", 2.0, 1.0, False))
        assert not rep.all_passed()
        assert [c.name for c in rep.failed()] == ["b"]
        d = rep.to_dict()
        assert d["passed"] is False
        assert len(d["checks"]) == 2
