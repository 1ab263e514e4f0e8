"""Acceptance suite: the nine end-to-end criteria the package must meet.

Each test prints one PASS line on success (run with ``pytest -s`` to see them);
tolerances are pinned in the assertions, not configurable.
"""

import math

import numpy as np
import pytest

from berwald.classifier import classify
from berwald.geodesic_engine import integrate_finsler, integrate_spray
from berwald.geometry_core import (ConnectionProfile, TangentPoint, curvature_profile,
                                   sample_tangent_points)
from berwald.metrizer import (NotRiemannMetrizable, build_class3, build_class4,
                              build_class5, build_exponential, build_power_law)
from berwald.verifier import check_horizontal_constancy, levi_civita_roundtrip

from conftest import (Scaled, admissible, class5_curved_block, default_grid, ex1_paper_L,
                      ex2_paper_L, exp_paper_L, exponential_example, flat_cartesian,
                      flat_spherical, horizontal_residual, power_law_nonsymmetric,
                      power_law_symmetric)
from generators import make_class3, make_class5
from oracles import (class3_delta, class5_det_formula, ricci_asymmetry, riemann_falsification,
                     sample_jets, signature_observation)

GRID = default_grid(8)           # t, r in [0.5, 2.5]
GRID25 = default_grid(5)         # the 25-point evaluation grid
SEED = 20240601


def _ok(n, text):
    print("ACCEPTANCE %d: PASS - %s" % (n, text))


@pytest.fixture(scope="module")
def ex1():
    conn = power_law_nonsymmetric(3.0)
    return conn, build_power_law(conn, GRID), classify(conn, GRID, seed=SEED)


@pytest.fixture(scope="module")
def ex2():
    conn = power_law_symmetric()
    return conn, build_power_law(conn, GRID), classify(conn, GRID, seed=SEED)


@pytest.fixture(scope="module")
def exp3():
    conn = exponential_example()
    return conn, build_exponential(conn, GRID), classify(conn, GRID, seed=SEED)


def test_criterion_1_power_law_pipeline(ex1):
    conn, form, rep = ex1
    alpha = 3.0
    # curvature closed forms at 25 grid points, 1e-10 relative
    for (t, r) in GRID25:
        cp = curvature_profile(conn, t, r)
        want = {1: 2 * alpha - 4, 2: 0.0, 3: 4 * alpha * r * r * (alpha - 1),
                4: -2 * alpha, 5: -2.0, 6: 0.0, 7: 2 * alpha * r * r * (alpha - 1),
                8: -4 * r * r * (alpha - 1), 9: 0.0, 10: 0.0, 11: -alpha,
                12: 2.0, 13: 0.0, 14: 1.0}
        for i, v in want.items():
            assert cp.a[i].value == pytest.approx(v, rel=1e-10, abs=1e-10)
        assert ricci_asymmetry(cp) == pytest.approx(-8.0, abs=1e-10)
    # classification
    assert rep.class_label == 1
    assert rep.holonomy_rank == 3
    assert rep.riemann_metrizable == "no"
    # built L equals the displayed one up to a single positive constant
    rng = np.random.default_rng(SEED)
    pts = sample_tangent_points(rng, (0.5, 2.5), (0.5, 2.5), 50,
                                predicate=admissible(form))
    ratios = np.array([form.jet(p).value / ex1_paper_L(p) for p in pts])
    assert np.all(ratios > 0)
    assert float(np.var(ratios)) < 1e-8
    # horizontal constancy and Lorentzian signature
    res = check_horizontal_constancy(sample_jets(form, pts), conn, tol=1e-7)
    assert res.passed
    assert sorted(signature_observation(form, pts)) == [1, 3]
    _ok(1, "power-law pipeline (curvature, Ricci -8, class 1/rank 3/no, "
           "L ratio variance %.1e, deltaL %.1e, Lorentzian)"
        % (float(np.var(ratios)), res.residual))


def test_criterion_2_symmetric_power_law(ex2):
    conn, form, rep = ex2
    assert rep.class_label == 1
    assert rep.evidence["lambda"] == pytest.approx(0.75, abs=1e-12)
    for (t, r) in GRID25:
        assert form.rho_field.value(t, r) == pytest.approx(0.0, abs=1e-12)
    assert abs(rep.ricci_asymmetry) < 1e-12
    assert rep.riemann_metrizable == "no"
    assert rep.holonomy_rank == 3
    # det of the vertical Hessian of the displayed L: -(27/16) e^{2 Phi} sin^2
    # (the half-normalized metric tensor carries an extra 2^-4)
    t0, r0 = min(GRID)
    anchored = Scaled(form, math.exp(0.5 * t0 * r0))
    rng = np.random.default_rng(SEED + 1)
    pts = sample_tangent_points(rng, (0.5, 2.5), (0.5, 2.5), 25,
                                predicate=admissible(form))
    worst = 0.0
    for p in pts:
        det = np.linalg.det(2.0 * anchored.jet(p).metric_tensor())
        pred = -(27.0 / 16.0) * math.exp(2 * p.t * p.r) * math.sin(p.theta) ** 2
        worst = max(worst, abs(det - pred) / abs(pred))
    assert worst < 1e-6
    _ok(2, "symmetric power law (lambda 3/4, rho 0, Ricci 0, det formula %.1e, "
           "riemann no via rank 3)" % worst)


def test_criterion_3_exponential(exp3):
    conn, form, rep = exp3
    assert rep.class_label == 2
    assert rep.riemann_metrizable == "no"
    # mu and phi reproduce the displayed expressions at 25 points to 1e-8
    t0, r0 = min(GRID)
    phi_paper = lambda t, r: math.exp(
        (3 * t * t - 2 * r * t - 1) * math.exp(-(r - t) ** 2))
    anchor = phi_paper(t0, r0)
    worst_mu = worst_phi = 0.0
    for (t, r) in GRID25:
        mu = form.mu_field.value(t, r)
        worst_mu = max(worst_mu, abs(mu - math.exp(-(r - t) ** 2)))
        phi_built = math.exp(form.scale_pot.values(t, r)["psi"]) * anchor
        worst_phi = max(worst_phi, abs(phi_built - phi_paper(t, r)) / phi_paper(t, r))
    assert worst_mu < 1e-8
    assert worst_phi < 1e-8
    rng = np.random.default_rng(SEED + 2)
    pts = sample_tangent_points(rng, (0.5, 2.5), (0.5, 2.5), 40,
                                predicate=admissible(form))
    res = check_horizontal_constancy(sample_jets(form, pts), conn, tol=1e-6)
    assert res.passed
    _ok(3, "exponential pipeline (class 2, mu %.1e, phi %.1e, deltaL %.1e)"
        % (worst_mu, worst_phi, res.residual))


def test_criterion_4_class4_flat():
    conn = flat_cartesian()
    rep = classify(conn, GRID, seed=SEED)
    assert rep.class_label == 4
    assert rep.holonomy_rank == 1
    A = build_class4(conn, GRID, "lorentzian")
    for (t, r) in GRID25:
        assert tuple(A.coefficient_table([(t, r)])[0, :, 0]) == pytest.approx(
            (1.0, 0.0, -1.0, -1.0), abs=1e-12)
    # Levi-Civita round trip: the k-table vanishes identically and the only
    # nonzero Christoffels are the two structural angular entries, rebuilt
    # here from theta-finite-differences of the full metric of A
    res = levi_civita_roundtrip(A, conn, GRID, tol=1e-10)
    assert res.passed
    th = 0.9
    h = 1e-6

    def metric(theta):
        att, atr, arr, aw = A.coefficient_table([(1.0, 1.0)])[0, :, 0]
        g = np.diag([att, arr, aw, aw * math.sin(theta) ** 2])
        g[0, 1] = g[1, 0] = atr
        return g

    g0 = metric(th)
    dg = (metric(th + h) - metric(th - h)) / (2 * h)
    ginv = np.linalg.inv(g0)
    gam_theta_phiphi = -0.5 * ginv[2, 2] * dg[3, 3]
    gam_phi_thetaphi = 0.5 * ginv[3, 3] * dg[3, 3]
    assert gam_theta_phiphi == pytest.approx(-math.sin(th) * math.cos(th), rel=1e-8)
    assert gam_phi_thetaphi == pytest.approx(1.0 / math.tan(th), rel=1e-8)
    _ok(4, "flat class-4 pipeline (A = diag(1,-1,-w^2), round trip %.1e, rank 1)"
        % res.residual)


def test_criterion_5_class3_random_suite():
    worst_lc = worst_det = 0.0
    rng = np.random.default_rng(SEED + 3)
    grid = default_grid(5)
    for seed in range(101, 111):
        conn, meta = make_class3(seed)
        rep = classify(conn, grid, seed=SEED)
        assert rep.class_label == 3
        assert rep.riemann_metrizable == "yes"
        fins, riem = build_class3(conn, grid, "identity")
        lc = levi_civita_roundtrip(riem, conn, grid, tol=1e-6)
        assert lc.passed
        worst_lc = max(worst_lc, lc.residual)
        pots = riem.meta["potentials"]
        for _ in range(5):
            t, r = rng.uniform(0.6, 2.4, size=2)
            th = rng.uniform(0.4, 2.6)
            p = TangentPoint(t, r, th, 0.0, 1.0, 0.3, 0.2, -0.4)
            detg = np.linalg.det(riem.jet(p).metric_tensor())
            K = pots.values(t, r)["K"]
            pred = math.sin(th) ** 2 * math.exp(6 * K) * class3_delta(riem, t, r)
            rel = abs(detg - pred) / (1 + abs(pred))
            assert rel < 1e-6
            worst_det = max(worst_det, rel)
    _ok(5, "ten random class-3 pipelines (round trip %.1e, det formula %.1e)"
        % (worst_lc, worst_det))


def test_criterion_6_class5_suite():
    conn = class5_curved_block()
    rep = classify(conn, GRID, seed=SEED)
    assert rep.class_label == 5
    assert rep.riemann_metrizable == "yes"
    A = build_class5(conn, GRID, C1=1.0, C2=1.0)
    rng = np.random.default_rng(SEED + 4)
    pts = sample_tangent_points(rng, (0.5, 2.5), (0.5, 2.5), 30)
    res = check_horizontal_constancy(sample_jets(A, pts), conn, tol=1e-6,
                                     name="horizontal-constancy-A")
    assert res.passed
    worst_det = 0.0
    for p in pts[:10]:
        detg = abs(np.linalg.det(A.jet(p).metric_tensor()))
        pred = class5_det_formula(A, conn, p.t, p.r, p.theta)
        rel = abs(detg - pred) / pred
        assert rel < 1e-6
        worst_det = max(worst_det, rel)
    # perturbed fixture: a1 + a4 != 0
    broken = ConnectionProfile({2: "r", 4: "r*exp(r^2)", 6: "0.1*r"})
    rep_b = classify(broken, GRID, seed=SEED)
    assert rep_b.riemann_metrizable == "no"
    with pytest.raises(NotRiemannMetrizable):
        build_class5(broken, GRID)
    floor = riemann_falsification(broken, 1.3, 1.7, 1.0,
                                  np.random.default_rng(SEED + 5))
    assert floor.residual > 1e-3
    _ok(6, "class-5 suite (deltaA %.1e, det formula %.1e, perturbed verdict no, "
           "fit floor %.2e)" % (res.residual, worst_det, floor.residual))


def test_criterion_7_a5_identity():
    rng = np.random.default_rng(SEED + 6)

    def poly():
        c = rng.uniform(-1, 1, size=6)
        return ("%.17g + %.17g*t + %.17g*r + %.17g*t*r + %.17g*t^2 + %.17g*r^2"
                % tuple(c))

    worst = 0.0
    for _ in range(100):
        conn = ConnectionProfile({i: poly() for i in range(1, 13)})
        t, r = rng.uniform(0.5, 2.5, size=2)
        cp = curvature_profile(conn, t, r)
        res = abs(cp.a[5].value - (cp.a[9].value - cp.a[12].value))
        worst = max(worst, res)
        assert res < 1e-10 * (1 + abs(cp.a[9].value) + abs(cp.a[12].value))
    _ok(7, "a5 = a9 - a12 on 100 random profiles (worst %.1e)" % worst)


def test_criterion_8_geodesic_agreement(ex1, ex2, exp3):
    # The stated Example-1 probe state leaves the chart (r -> 0) at s ~ 0.13;
    # the same geodesic path parametrized 5x slower stays in-chart over T = 0.5.
    states = {
        "ex1": TangentPoint(1.0, 2.0, math.pi / 2, 0.0, 0.2, 0.02, 0.01, 0.004),
        "ex2": TangentPoint(1.0, 1.0, math.pi / 2, 0.0, 1.0, 0.5, 0.1, 0.05),
        "exp": TangentPoint(1.0, 1.0, math.pi / 2, 0.0, 1.0, 0.5, 0.1, 0.05),
    }
    worst_disc = worst_drift = 0.0
    for name, (conn, form, _rep) in (("ex1", ex1), ("ex2", ex2), ("exp", exp3)):
        p0 = states[name]
        tr_a = integrate_spray(conn, p0, 0.5, 100)
        tr_f = integrate_finsler(form, p0, 0.5, 100)
        scale = 1.0 + float(np.max(np.abs(tr_a.states)))
        disc = float(np.max(np.abs(tr_a.states - tr_f.states))) / scale
        Ls = np.array([form.jet(TangentPoint(*st)).value for st in tr_a.states])
        drift = float(np.max(np.abs(Ls - Ls[0]))) / abs(Ls[0])
        assert disc < 1e-6, name
        assert drift < 1e-8, name
        worst_disc = max(worst_disc, disc)
        worst_drift = max(worst_drift, drift)
    _ok(8, "dual-integrator agreement over T = 0.5 (discrepancy %.1e, "
           "L drift %.1e)" % (worst_disc, worst_drift))


def test_criterion_9_theorem_cross_consistency():
    fixtures = [power_law_nonsymmetric(2.5), power_law_nonsymmetric(3.0),
                power_law_symmetric(), exponential_example(), flat_cartesian(),
                flat_spherical(), class5_curved_block(),
                ConnectionProfile({2: "r", 4: "r*exp(r^2)", 6: "0.1*r"}),
                make_class3(201)[0], make_class3(202)[0],
                make_class5(201)[0], make_class5(202, eps=0.05)[0]]
    grid = default_grid(6)
    violations = 0
    constructed = 0
    for conn in fixtures:
        rep = classify(conn, grid, seed=SEED)
        if rep.riemann_metrizable == "yes":
            scale = 1.0 + rep.evidence["constraint_scale"]
            if rep.holonomy_rank > 2 or abs(rep.ricci_asymmetry) > 1e-8 * scale:
                violations += 1
            # the converse construction must go through and certify
            if rep.class_label == 3:
                _, riem = build_class3(conn, grid, "identity")
            elif rep.class_label == 4:
                riem = build_class4(conn, grid, "lorentzian")
            else:
                riem = build_class5(conn, grid)
            if not levi_civita_roundtrip(riem, conn, grid, tol=1e-6).passed:
                violations += 1
            constructed += 1
    assert violations == 0
    assert constructed >= 5
    _ok(9, "theorem cross-consistency on %d fixtures (%d metrics constructed, "
           "0 violations)" % (len(fixtures), constructed))
