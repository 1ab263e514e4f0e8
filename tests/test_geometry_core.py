import math
import re

import numpy as np
import pytest

from berwald.geometry_core import (BRACKET_PAIRS, COORD_NAMES, PH, R, TH, T,
                                   ConnectionProfile, CurvatureGrid, InsufficientSamples,
                                   NonFiniteData, TangentPoint, UnsupportedConnection,
                                   bracket_vectors, christoffel_table,
                                   curvature_grid, curvature_profile,
                                   numeric_rank, sample_tangent_points, spray_coefficients,
                                   vertical_holonomy_rank)

from berwald import geometry_core, scalar_field
from berwald.metrizer import W2
from berwald.scalar_field import DomainError, ScalarField, compile_program

from conftest import (assert_program_matches_fields, class5_curved_block, default_grid,
                      exponential_example, flat_cartesian, nonlinear_connection,
                      power_law_nonsymmetric, power_law_symmetric, to_sympy)
from generators import make_class3, make_class5
from oracles import ricci_asymmetry


class TestCurvatureProfile:
    def test_power_law_closed_forms(self):
        # alpha = 3, r = 2: a1 = 2a-4, a3 = 4a r^2(a-1), a4 = -2a, a5 = -2,
        # a7 = 2a r^2 (a-1), a8 = -4 r^2 (a-1), a11 = -a, a12 = 2, a14 = 1
        cp = curvature_profile(power_law_nonsymmetric(3.0), 1.0, 2.0)
        want = {1: 2.0, 2: 0.0, 3: 96.0, 4: -6.0, 5: -2.0, 6: 0.0, 7: 48.0,
                8: -32.0, 9: 0.0, 10: 0.0, 11: -3.0, 12: 2.0, 13: 0.0, 14: 1.0}
        for i, v in want.items():
            assert cp.a[i].value == pytest.approx(v, abs=1e-10)
        assert cp.corner == "generic"
        a, b, c = cp.abc
        assert (a, b, c) == pytest.approx((0.0, -2.0 / 3.0, 0.0))
        D, E, F = cp.DEF
        assert D == pytest.approx(2 - 2 * 3)      # 2 - 2 alpha
        assert E == pytest.approx(-8 * (3 - 1) * 4)
        assert F == pytest.approx(4 - 2 * 3)
        G, Gt, H, Ht = cp.GH
        assert G == pytest.approx(4 * 2 * (3 - 2))
        assert Gt == pytest.approx(4 * 2 * (3 - 1))
        assert H == Ht == 0.0

    def test_symmetric_power_law_values(self):
        # Phi = t*r through the coefficient table: a1 = 1, a4 = a5 = a7 = a9 = -1/3.
        # The remaining values follow from the defining formulas:
        # a11 = a13 = -(d^2_r Phi)/3 = 0 and a14 = 1 + (d_r Phi)^2 / 9 = 1 + t^2/9.
        for (t, r) in [(1.0, 2.0), (3.0, 0.7), (1.4, 1.4)]:
            cp = curvature_profile(power_law_symmetric(), t, r)
            assert cp.a[1].value == pytest.approx(1.0, abs=1e-12)
            for i in (4, 5, 7, 9):
                assert cp.a[i].value == pytest.approx(-1.0 / 3.0, abs=1e-12)
            for i in (2, 3, 6, 8, 10, 11, 12, 13):
                assert cp.a[i].value == pytest.approx(0.0, abs=1e-12)
            assert cp.a[14].value == pytest.approx(1.0 + t * t / 9.0, abs=1e-12)
            a, b, c = cp.abc
            assert (a, b, c) == pytest.approx((0.0, 0.0, 1.0))

    def test_flat(self):
        cp = curvature_profile(flat_cartesian(), 1.3, 0.8)
        for i in range(1, 14):
            assert cp.a[i].value == 0.0
        assert cp.a[14].value == 1.0
        assert cp.corner == "w_zero"

    def test_fields_keep_their_own_parameters(self):
        conn = ConnectionProfile({1: ScalarField("c*r", {"c": 2.0}),
                                  2: ScalarField("c*t", {"c": 5.0})})
        assert curvature_profile(conn, 1.0, 0.5).a[1].value == 2.0 - 5.0

    def test_failures_are_located(self):
        """Where a k_i's derivative is undefined (abs at its kink: d|u| divides
        by |u|) or an a_i overflows with finite k_i jets, the error names the
        quantity and the point."""
        with pytest.raises(DomainError, match=r"^k2 at \(t, r\) = \(1, 0.5\): division by zero"):
            curvature_profile(ConnectionProfile({2: "abs(t - 1)"}), 1.0, 0.5)
        with pytest.raises(NonFiniteData, match=r"^a1 is not finite at \(t, r\) = \(1, 0.5\)"):
            curvature_profile(ConnectionProfile({3: "1e200", 4: "1e200"}), 1.0, 0.5)

    def test_ricci_asymmetry(self):
        for alpha in (2.5, 3.0, 4.0):
            for (t, r) in [(0.6, 0.9), (2.0, 2.2)]:
                cp = curvature_profile(power_law_nonsymmetric(alpha), t, r)
                assert ricci_asymmetry(cp) == pytest.approx(-8.0, abs=1e-10)
        cp = curvature_profile(power_law_symmetric(), 1.1, 0.4)
        assert ricci_asymmetry(cp) == pytest.approx(0.0, abs=1e-12)
        assert ricci_asymmetry(curvature_profile(flat_cartesian(), 1, 1)) == 0.0


def first_failure(evaluate, points):
    """The type and text of the error of ``evaluate`` at the first of
    ``points`` where it raises, one point at a time (the per-point path the
    array runs once fell back to); None where none raises."""
    for q in points:
        try:
            evaluate(*q)
        except (DomainError, NonFiniteData) as exc:
            return type(exc), str(exc)
    return None


def raised(evaluate):
    with pytest.raises((DomainError, NonFiniteData)) as exc:
        evaluate()
    return exc.type, str(exc.value)


class TestMixedBatches:
    """Failing and passing points in one array run: where none fails, the
    per-point values; else the error of the first failing point in order."""

    def test_k_values(self):
        conn = ConnectionProfile({1: "t*t", 2: "1/(r - 1.5)", 10: "r"})
        good = [(1.0, 1.0), (0.5, 2.0), (2.0, 0.7)]
        t, r = np.array(good).T
        assert conn.k_values(t, r).tolist() == [conn.k_values(*q).tolist() for q in good]
        for bad, want in (([(1.0, 1.5), (1e200, 1.0)],
                           (DomainError, "k2 at (t, r) = (1, 1.5): division by zero")),
                          ([(1e200, 1.0), (1.0, 1.5)],
                           (NonFiniteData, "k1 is not finite at (t, r) = (1e+200, 1)"))):
            pts = good[:2] + bad + good[2:]
            assert first_failure(conn.k_values, pts) == want
            assert raised(lambda: conn.k_values(*np.array(pts).T)) == want

    @pytest.mark.parametrize("fields, bad", [
        ({1: "1/(t - 1.5)", 2: "t*r", 7: "r*t", 9: "1/r", 10: "r"}, (1.5, 1.0)),
        # k8/k10 a3 overflows in the second program only, at the generic node r = 1
        ({4: "1e308*(r - 1)", 8: "100", 10: "1"}, (1.0, 1.0))])
    def test_curvature_grid(self, fields, bad):
        conn = ConnectionProfile(fields)
        good = [(1.0, 2.0), (2.0, 1.2), (0.5, 0.5)]
        grid = curvature_grid(conn, good)
        ref = CurvatureGrid.from_profiles([curvature_profile(conn, *q) for q in good])
        for name in ("k", "a", "abc", "DEF", "GH"):
            assert np.array_equal(getattr(grid, name), getattr(ref, name), equal_nan=True)
        assert grid.corner.tolist() == ref.corner.tolist()
        pts = good[:2] + [bad, (1.0, 1.0), bad] + good[2:]
        want = first_failure(lambda t, r: curvature_profile(conn, t, r), pts)
        assert want is not None and "(t, r) = (%g, %g)" % bad in want[1]
        assert raised(lambda: curvature_grid(conn, pts)) == want


class TestSpray:
    def test_flat_equator(self):
        p = TangentPoint(0, 1, math.pi / 2, 0.1, 1, 0, 0, 1)
        assert spray_coefficients(flat_cartesian(), p) == pytest.approx((0, 0, 0, 0))

    def test_flat_theta_sector(self):
        p = TangentPoint(0, 1, math.pi / 4, 0.0, 0.3, 0, 0, 1)
        G = spray_coefficients(flat_cartesian(), p)
        assert G[2] == pytest.approx(-0.25)
        assert G[3] == pytest.approx(0.0)

    def test_power_law_radial(self):
        p = TangentPoint(1, 2, math.pi / 2, 0, 1, 0, 0, 0)
        G = spray_coefficients(power_law_nonsymmetric(3.0), p)
        assert G[0] == pytest.approx(2.0)    # (1/2) k1 = r(alpha-2)
        assert G[1] == pytest.approx(96.0)   # (1/2) k4 = 2 alpha r^3 (alpha-1)

    def test_angular_rotation_terms(self):
        conn = ConnectionProfile({11: "1", 12: "2"})
        th = 0.9
        p = TangentPoint(0, 1, th, 0, 1.0, 0.5, 0.2, 0.3)
        G = spray_coefficients(conn, p)
        s = math.sin(th)
        # G^theta gains -phidot (k11 tdot + k12 rdot) sin(theta)
        assert G[2] == pytest.approx(
            -0.3 * (1.0 + 2 * 0.5) * s - 0.5 * 0.09 * math.cos(th) * s)
        # G^phi gains thetadot (k11 tdot + k12 rdot)/sin(theta)
        assert G[3] == pytest.approx(
            0.2 * (1.0 + 2 * 0.5) / s + 0.3 * 0.2 * math.cos(th) / s)


def _random_polynomial_profile(rng) -> ConnectionProfile:
    def poly():
        c = rng.uniform(-1, 1, size=6)
        return ("%.17g + %.17g*t + %.17g*r + %.17g*t*r + %.17g*t^2 + %.17g*r^2"
                % tuple(c))
    return ConnectionProfile({i: poly() for i in range(1, 13)})


def test_a5_identity_on_random_profiles():
    rng = np.random.default_rng(42)
    for _ in range(100):
        conn = _random_polynomial_profile(rng)
        t, r = rng.uniform(0.5, 2.5, size=2)
        cp = curvature_profile(conn, t, r)
        lhs = cp.a[5].value
        rhs = cp.a[9].value - cp.a[12].value
        assert abs(lhs - rhs) < 1e-10 * (1 + abs(cp.a[9].value) + abs(cp.a[12].value))


class TestBrackets:
    def _fd_curvature(self, conn, p, h=1e-6):
        """R^a_bc = delta_c N^a_b - delta_b N^a_c by finite differences."""
        def N_at(state):
            return nonlinear_connection(conn, TangentPoint(*state))
        s0 = p.state()
        dN_x, dN_v = [], []
        for c in range(4):
            sp_, sm = s0.copy(), s0.copy()
            sp_[c] += h
            sm[c] -= h
            dN_x.append((N_at(sp_) - N_at(sm)) / (2 * h))
        for d in range(4):
            sp_, sm = s0.copy(), s0.copy()
            sp_[4 + d] += h
            sm[4 + d] -= h
            dN_v.append((N_at(sp_) - N_at(sm)) / (2 * h))
        N0 = N_at(s0)
        R = np.zeros((4, 4, 4))
        for b in range(4):
            for c in range(4):
                dcNb = dN_x[c][:, b] - sum(N0[d, c] * dN_v[d][:, b] for d in range(4))
                dbNc = dN_x[b][:, c] - sum(N0[d, b] * dN_v[d][:, c] for d in range(4))
                R[:, b, c] = dcNb - dbNc
        return R

    def test_depth1_matches_fd_of_nonlinear_connection(self):
        rng = np.random.default_rng(5)
        # k11 = k12 = 0: the coefficient table covers the classified family
        for _ in range(5):
            fields = _random_polynomial_profile(rng)
            conn = ConnectionProfile({i: fields.k_field(i) for i in range(1, 11)})
            p = TangentPoint(*rng.uniform(0.8, 1.8, size=2), 1.1, 0.3,
                             *rng.uniform(-1, 1, size=4) + np.array([1.5, 0, 0, 0]))
            R = self._fd_curvature(conn, p)
            vecs = bracket_vectors(conn, p, 1)
            for vec, (b, c) in zip(vecs, BRACKET_PAIRS):
                scale = 1.0 + np.max(np.abs(vec.components))
                assert np.max(np.abs(vec.components - R[:, b, c])) / scale < 1e-6

    def test_antisymmetry_from_fd(self):
        rng = np.random.default_rng(8)
        fields = _random_polynomial_profile(rng)
        conn = ConnectionProfile({i: fields.k_field(i) for i in range(1, 11)})
        p = TangentPoint(1.2, 1.5, 0.9, 0.0, 1.0, -0.4, 0.7, 0.2)
        R = self._fd_curvature(conn, p)
        assert np.max(np.abs(R + np.swapaxes(R, 1, 2))) < 1e-6 * (1 + np.max(np.abs(R)))
        for a in range(4):
            assert np.max(np.abs(R[:, a, a])) < 1e-9

    def test_class4_depth1_only_theta_phi(self):
        conn = ConnectionProfile({1: "t", 2: "r", 6: "t*r"})  # w-corner zero
        # force [delta_t, delta_r] = 0? not needed: check the theta-phi row shape
        p = TangentPoint(1.0, 1.5, 0.8, 0.0, 0.7, 0.2, 0.4, -0.3)
        cp = curvature_profile(conn, 1.0, 1.5)
        vecs = bracket_vectors(conn, p, 1, cp)
        tp = vecs[-1].components
        a14 = cp.a[14].value
        s2 = math.sin(0.8) ** 2
        assert tp == pytest.approx([0, 0, -a14 * (-0.3) * s2, a14 * 0.4])
        for vec in vecs[1:5]:  # mixed (t, theta)-type brackets all vanish here
            assert np.max(np.abs(vec.components)) == 0.0

    def test_flat_depth2_adds_no_vertical_direction(self):
        # Nested angular brackets stay inside the span of [delta_theta, delta_phi]:
        # [delta_theta, [delta_theta, delta_phi]] = cot(theta) [delta_theta, delta_phi]
        # and [delta_phi, [delta_theta, delta_phi]] = 0, both confirmed by raw
        # 8-dimensional Lie-bracket finite differences.
        conn = flat_cartesian()
        p = TangentPoint(1.0, 1.0, 0.7, 0.2, 0.5, 0.1, 0.3, 0.9)
        vecs = bracket_vectors(conn, p, 2)
        first = {v.label: v.components for v in vecs}
        w = first[("theta", "phi")]
        assert np.linalg.norm(w) > 0.1
        nested_theta = first[("theta", ("theta", "phi"))]
        assert nested_theta == pytest.approx(w / math.tan(0.7), rel=1e-12)
        nested_phi = first[("phi", ("theta", "phi"))]
        assert np.max(np.abs(nested_phi)) < 1e-12
        for nested in (nested_theta, nested_phi):
            sv = np.linalg.svd(np.stack([w, nested]), compute_uv=False)
            assert sv[1] < 1e-12 * max(sv[0], 1.0)  # no new direction

    def test_class1_delta_minor_closed_form(self):
        conn = power_law_nonsymmetric(3.0)
        rng = np.random.default_rng(3)
        for _ in range(10):
            t, r = rng.uniform(0.6, 2.4, size=2)
            th = rng.uniform(0.4, 2.4)
            td, rd, thd, phd = rng.uniform(-1.5, 1.5, size=4)
            td = abs(td) + 0.2
            p = TangentPoint(t, r, th, 0.0, td, rd, thd, phd)
            cp = curvature_profile(conn, t, r)
            vecs = bracket_vectors(conn, p, 1, cp)
            rows = np.stack([vecs[0].components, vecs[1].components, vecs[2].components])
            minor = np.linalg.det(rows[:, 1:])
            a = {i: cp.a[i].value for i in range(1, 15)}
            w2 = thd ** 2 + phd ** 2 * math.sin(th) ** 2
            closed = (a[8] * td + a[9] * rd) * (
                a[3] * a[8] * td ** 2 + (a[3] * a[9] + a[4] * a[8]) * td * rd
                + a[4] * a[9] * rd ** 2 - a[5] * a[7] * w2)
            assert minor == pytest.approx(closed, rel=1e-8, abs=1e-10)

    def test_k11_rejected(self):
        conn = ConnectionProfile({11: "1"})
        p = TangentPoint(1, 1, 1, 0, 1, 0, 0, 0)
        with pytest.raises(UnsupportedConnection):
            bracket_vectors(conn, p, 1)

    def test_classifiable_check_is_one_array_run(self, monkeypatch):
        """k11 and k12 are read with one `k_values` run over the grid, no
        field alone, and the first node in the grid's order that has either
        nonzero is the one named; a structurally present k12 that vanishes on
        the grid passes, and on no grid it is refused."""
        grid = [(t, r) for t in (2.0, 0.5, 1.0) for r in (1.5, 0.5)]
        runs = []
        k_values = ConnectionProfile.k_values
        monkeypatch.setattr(ConnectionProfile, "k_values",
                            lambda self, t, r: runs.append(np.shape(t)) or k_values(self, t, r))
        monkeypatch.setattr(ScalarField, "value", lambda *a: pytest.fail("a field alone"))
        for fields, at in (({12: "(t - 1)*(r - 1.5)"}, (2.0, 0.5)), ({11: "(t - 2)*r"}, (0.5, 1.5))):
            with pytest.raises(UnsupportedConnection, match=re.escape(
                    "k11/k12 nonzero at (t, r) = (%g, %g); outside the classified family" % at)):
                ConnectionProfile(fields).require_classifiable(grid)
        ConnectionProfile({12: "(t - 1)*(t - 2)*(t - 0.5)"}).require_classifiable(grid)
        assert runs == [(6,)] * 3
        with pytest.raises(UnsupportedConnection, match="structurally nonzero"):
            ConnectionProfile({12: "t - t"}).require_classifiable([])


class TestHolonomyRank:
    def test_ranks_of_reference_profiles(self, rng):
        samples = sample_tangent_points(rng, (0.6, 2.4), (0.6, 2.4), 25)
        assert vertical_holonomy_rank(power_law_nonsymmetric(3.0), samples) == 3
        assert vertical_holonomy_rank(power_law_symmetric(), samples) == 3
        assert vertical_holonomy_rank(exponential_example(), samples) == 3
        assert vertical_holonomy_rank(flat_cartesian(), samples) == 1
        assert vertical_holonomy_rank(class5_curved_block(), samples) == 2

    def test_rank_deterministic_under_sample_order(self, rng):
        samples = sample_tangent_points(rng, (0.6, 2.4), (0.6, 2.4), 24)
        conn = power_law_nonsymmetric(3.0)
        assert (vertical_holonomy_rank(conn, samples)
                == vertical_holonomy_rank(conn, samples[::-1]))

    def test_insufficient_samples(self, rng):
        samples = sample_tangent_points(rng, (0.6, 2.4), (0.6, 2.4), 5)
        with pytest.raises(InsufficientSamples):
            vertical_holonomy_rank(flat_cartesian(), samples)

    def test_numeric_rank_tolerance(self):
        mat = np.diag([1.0, 1e-4, 1e-12])
        assert numeric_rank(mat, tol=1e-8) == 2
        assert numeric_rank(np.zeros((3, 4))) == 0


def scalar_samples(rng, t_range, r_range, n, predicate=None):
    """The sampler drawn one candidate at a time, nine scalar draws each."""
    pts, tries = [], 0
    while len(pts) < n:
        tries += 1
        if tries > geometry_core._MAX_TRIES:
            raise InsufficientSamples("predicate rejected too many samples")
        t = rng.uniform(*t_range)
        r = rng.uniform(*r_range)
        theta = math.asin(rng.uniform(0.2, 0.98))
        if rng.uniform() < 0.5:
            theta = math.pi - theta
        phi = rng.uniform(0.0, 2.0 * math.pi)
        tdot = rng.uniform(0.0, 2.0)
        rdot, thetadot, phidot = rng.uniform(-2.0, 2.0, size=3)
        if tdot <= 1e-6:
            continue
        p = TangentPoint(t, r, theta, phi, tdot, rdot, thetadot, phidot)
        if predicate is not None and not predicate(p):
            continue
        pts.append(p)
    return pts


class TestChunkedSampler:
    """`sample_tangent_points` draws chunks of candidates and gives the
    points, the predicate's calls and the generator's next draw of drawing
    one candidate at a time."""

    @staticmethod
    def both(make_rng, n, predicate=None, admit=None, box=((0.6, 2.4), (0.5, 2.5))):
        """(points, predicate calls, next draw) of the scalar loop and of the
        sampler, the scalar loop's predicate being ``predicate`` and then ``admit``."""
        out = []
        for chunked in (False, True):
            rng, seen = make_rng(), []

            def pred(p):
                seen.append(p.state().tobytes())
                return predicate is None or predicate(p)
            if chunked:
                pts = sample_tangent_points(rng, *box, n, pred, admit)
            else:
                pts = scalar_samples(rng, *box, n, lambda p: pred(p) and (
                    admit is None or admit([p])[0]))
            out.append(([p.state().tobytes() for p in pts], seen, rng.random()))
        return out

    def test_same_points_calls_and_generator(self):
        rarely = lambda p: p.rdot > 1.8   # about one candidate in twenty
        for seed in range(12):
            for predicate in (None, rarely, lambda p: p.tdot > p.rdot):
                for n in (1, 20, 50):
                    ref, got = self.both(lambda: np.random.default_rng(seed), n, predicate)
                    assert got == ref

    def test_tiny_tdot_is_skipped(self):
        # candidate 796 528 of seed 0 draws tdot = 1.27e-7: the 9th after this jump
        def make_rng():
            rng = np.random.default_rng(0)
            rng.bit_generator.advance(9 * 796520)
            return rng
        assert 2.0 * make_rng().random((9, 9))[8, 5] <= 1e-6
        ref, got = self.both(make_rng, 30)
        assert got == ref
        # the predicate saw 30 candidates, and one more was drawn: the skipped one
        assert len(ref[1]) == 30 and ref[2] == make_rng().random(9 * 31 + 1)[-1]

    def test_too_strict_predicate_raises_where_the_scalar_loop_does(self):
        states = []
        for chunked in (False, True):
            rng, seen = np.random.default_rng(4), []
            with pytest.raises(InsufficientSamples):
                (sample_tangent_points if chunked else scalar_samples)(
                    rng, (0.5, 2.5), (0.5, 2.5), 5, lambda p: seen.append(1) and False)
            states.append((len(seen), rng.random()))
        assert states[0] == states[1] and states[0][0] > geometry_core._MAX_TRIES - 5

    def test_batch_admission_sees_each_chunk_once(self):
        def admit(points):
            return [p.rdot < 0.0 for p in points]
        ref, got = self.both(lambda: np.random.default_rng(9), 40, lambda p: p.tdot > 0.5,
                             admit)
        assert got == ref
        batches = []
        sample_tangent_points(np.random.default_rng(9), (0.6, 2.4), (0.5, 2.5), 40, None,
                              lambda points: batches.append(len(points)) or admit(points))
        assert 1 < len(batches) <= 4   # half the candidates pass: a few chunks


class TestTangentPoint:
    def test_zero_velocity_rejected(self):
        with pytest.raises(ValueError):
            TangentPoint(1, 1, 1, 0, 0, 0, 0, 0)

    def test_chart_edge_rejected(self):
        with pytest.raises(ValueError):
            TangentPoint(1, 1, 0.0, 0, 1, 0, 0, 0)

    def test_w2(self):
        p = TangentPoint(0, 1, math.pi / 2, 0, 1, 0, 0.3, 0.4)
        env = {"theta": p.theta, "thetadot": p.thetadot, "phidot": p.phidot}
        assert compile_program([W2])(env)[0] == pytest.approx(0.09 + 0.16)


def test_christoffel_table_matches_spray():
    conn = exponential_example()
    p = TangentPoint(1.1, 0.7, 1.2, 0.3, 0.8, -0.5, 0.6, 0.2)
    kv = conn.k_values(p.t, p.r)
    Gam = christoffel_table(kv, p.theta)
    G = 0.5 * np.einsum("abc,b,c->a", Gam, p.velocity, p.velocity)
    assert tuple(G) == pytest.approx(spray_coefficients(conn, p))


class TestProgram:
    """k1..k12 run as one hash-consed program per connection."""

    POINTS = default_grid(4) + [(0.0, 0.0), (-1.0, 0.7), (1e-170, 1.0), (3.0, -2.0)]

    def test_generated_profiles_match_their_fields(self):
        for conn in (make_class3(101)[0], make_class5(7, eps=0.1)[0], exponential_example(),
                     power_law_nonsymmetric(), flat_cartesian()):
            assert_program_matches_fields(conn, self.POINTS)

    def test_shared_subexpression_evaluated_once(self, monkeypatch):
        """exp((r-t)^2) occurs eight times in k1..k6 of the exponential
        example, twice in k3 and in k4; a tree walk evaluates it eight times."""
        calls = []
        exp = scalar_field._FLOAT["exp"]
        monkeypatch.setitem(scalar_field._FLOAT, "exp", lambda x: calls.append(x) or exp(x))
        conn = exponential_example()
        compile_program(conn.k)({"t": 1.0, "r": 1.5})
        assert len(calls) == 1
        calls.clear()
        [f.value(1.0, 1.5) for f in conn.k]   # one program per field
        assert len(calls) == 6


# -- independent oracle: true Lie brackets of the horizontal lifts in sympy ---

def _rational_polynomial_profile(seed: int) -> ConnectionProfile:
    """Quadratic k1..k9 and k10 = 3/2 + (linear) with small rational
    coefficients: a generic w-corner on the box."""
    rng = np.random.default_rng(seed)

    def poly(terms):
        return " + ".join("(%d/%d)*%s" % (rng.integers(-9, 10), rng.integers(1, 8), m)
                          for m in terms)
    fields = {i: poly(["1", "t", "r", "t*r", "t^2", "r^2"]) for i in range(1, 10)}
    fields[10] = "3/2 + " + poly(["t", "r"]).replace("/", "/10/")
    return ConnectionProfile(fields)


def _sympy_k(conn: ConnectionProfile, x) -> dict:
    import sympy
    return {i: to_sympy(f, {"t": x[0], "r": x[1]}) for i, f in enumerate(conn.k, start=1)}


def _sympy_gamma(k: dict, x):
    """Gamma[e][c][d] of the classified family (k11 = k12 = 0) as sympy
    expressions of the coordinates x = (t, r, theta, phi)."""
    import sympy
    s, c = sympy.sin(x[2]), sympy.cos(x[2])
    G = [[[sympy.S.Zero] * 4 for _ in range(4)] for _ in range(4)]

    def put(e, a, b, v):
        G[e][a][b] = G[e][b][a] = v
    put(T, T, T, k[1]); put(T, T, R, k[2]); put(T, R, R, k[3])
    put(T, TH, TH, k[7]); put(T, PH, PH, k[7] * s * s)
    put(R, T, T, k[4]); put(R, T, R, k[6]); put(R, R, R, k[5])
    put(R, TH, TH, k[10]); put(R, PH, PH, k[10] * s * s)
    put(TH, T, TH, k[8]); put(TH, R, TH, k[9]); put(TH, PH, PH, -s * c)
    put(PH, T, PH, k[8]); put(PH, R, PH, k[9]); put(PH, TH, PH, c / s)
    return G


def _lie(X, Y, coords):
    import sympy
    return [sum(X[j] * sympy.diff(Y[i], coords[j]) - Y[j] * sympy.diff(X[i], coords[j])
                for j in range(8)) for i in range(8)]


class TestBracketOracle:
    """bracket_vectors (depth 2) against the Lie brackets of
    delta_a = d_a - N^d_a d_{ydot^d}, N^d_a = Gamma^d_ab ydot^b, in sympy: this
    checks a1..a14 and their (t, r)-partials without `curvature_formulas` or
    `_R_TABLE`.  (a, b, c), (D, E, F), (G, Gt, H, Ht) are checked against
    their definitions, with the a_i read off the sympy brackets."""

    @pytest.mark.parametrize("make", [lambda: _rational_polynomial_profile(5),
                                      lambda: power_law_nonsymmetric(3.0), class5_curved_block],
                             ids=["rational_polynomial", "example_1", "class5_curved_block"])
    def test_brackets_and_derived_coefficients(self, make):
        import sympy
        conn = make()
        x = sympy.symbols("t r theta phi")
        y = sympy.symbols("tdot rdot thetadot phidot")
        coords = list(x) + list(y)
        kk = _sympy_k(conn, x)
        G = _sympy_gamma(kk, x)
        N = [[sum(G[d][a][b] * y[b] for b in range(4)) for a in range(4)] for d in range(4)]
        delta = [[sympy.S.One if j == a else sympy.S.Zero for j in range(4)]
                 + [-N[d][a] for d in range(4)] for a in range(4)]
        level1 = {(COORD_NAMES[a], COORD_NAMES[b]): _lie(delta[a], delta[b], coords)
                  for a, b in BRACKET_PAIRS}
        level2 = {(COORD_NAMES[c], ab): _lie(delta[c], v, coords)
                  for ab, v in level1.items() for c in range(4)}
        rng = np.random.default_rng(11)
        for _ in range(2):
            p = TangentPoint(*rng.uniform(0.6, 2.4, 2), rng.uniform(0.4, 1.2),
                             rng.uniform(0.0, 6.0), *rng.uniform(-2.0, 2.0, 4))
            at = dict(zip(coords, map(sympy.Rational, p.state())))
            gam = [[[float(G[e][c][d].xreplace(at)) for d in range(4)] for c in range(4)]
                   for e in range(4)]
            assert np.allclose(gam, christoffel_table(conn.k_values(p.t, p.r), p.theta),
                               rtol=1e-13, atol=1e-13)
            got = {v.label: v.components for v in bracket_vectors(conn, p, depth=2)}
            assert set(got) == set(level1) | set(level2)
            for label, vec in list(level1.items()) + list(level2.items()):
                ref = [comp.xreplace(at).evalf(30) for comp in vec]
                assert all(abs(h) < 1e-25 for h in ref[:4])   # brackets are vertical
                ref = np.array([float(v) for v in ref[4:]])
                scale = 1.0 + np.max(np.abs(ref))
                assert np.max(np.abs(got[label] - ref)) <= 1e-12 * scale, label

            cp = curvature_profile(conn, p.t, p.r)
            if cp.corner != "generic":
                assert cp.abc is None
                continue
            tr = level1[("t", "r")]
            a = {1: sympy.diff(tr[4], y[0]), 3: sympy.diff(tr[5], y[0]),
                 5: sympy.diff(tr[6], y[2])}
            aa, bb = kk[7] / kk[10], kk[8] / kk[10]
            cc = (kk[9] * kk[10] - kk[7] * kk[8]) / kk[10] ** 2
            Gs, Hs = 2 * (kk[1] - kk[4] * aa), 2 * (kk[2] - kk[6] * aa)
            want = [aa, bb, cc, aa * a[3] - a[1] + a[5], bb * a[3], aa * a[3] - a[1],
                    Gs, Gs - 2 * kk[8], Hs, Hs - 2 * kk[9]]
            for g, w in zip(cp.abc + cp.DEF + cp.GH, want):
                w = float(w.xreplace(at).evalf(30))
                assert abs(g - w) <= 1e-12 * (1.0 + abs(w))
