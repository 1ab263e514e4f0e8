import math

import numpy as np
import pytest

from berwald.geodesic_engine import (_A, _B4, _B5, _C, ChartExit, StepFailure, Trajectory,
                                     integrate_finsler, integrate_ode, integrate_spray)
from berwald.geometry_core import ConnectionProfile, TangentPoint
from berwald.metrizer import build_class3, build_power_law

from conftest import count_values_at, default_grid, flat_cartesian, power_law_nonsymmetric
from generators import make_class3


class TestIntegrator:
    def test_exponential_decay(self):
        s = np.linspace(0.0, 2.0, 21)
        ys, stats = integrate_ode(lambda s, y: -y, np.array([1.0]), s)
        assert ys[-1, 0] == pytest.approx(math.exp(-2.0), rel=1e-9)
        assert stats.steps > 0
        assert stats.max_error_estimate <= 1.0

    def test_backward_integration(self):
        s = np.linspace(1.0, 0.0, 11)
        ys, _ = integrate_ode(lambda s, y: np.array([2 * s]), np.array([1.0]), s)
        assert ys[-1, 0] == pytest.approx(0.0, abs=1e-10)

    def test_lands_exactly_on_nodes(self):
        s = np.array([0.0, 0.3141592653589793, 1.0])
        ys, _ = integrate_ode(lambda s, y: np.array([1.0]), np.array([0.0]), s)
        assert ys[1, 0] == pytest.approx(s[1], abs=1e-13)


    def test_nan_error_estimate_shrinks_the_step(self):
        """A right-hand side that turns NaN after s = 0.05, and stays NaN,
        rejects each step and shrinks it to the underflow at once: it used
        to grow the step five-fold on every NaN estimate, and ran 1.2 M
        calls into the step limit."""
        calls, turned = [], []

        def f(s, y):
            calls.append(s)
            if s > 0.05:
                turned.append(s)
            return np.full(len(y), math.nan) if turned else -y

        with pytest.raises(StepFailure):
            integrate_ode(f, np.array([1.0]), [0.0, 1.0])
        assert len(calls) <= 200

    def test_nan_wall_ends_at_the_wall(self):
        """NaN beyond s = 0.05 only: the steps close in on the wall, where
        they underflow."""
        calls = []

        def f(s, y):
            calls.append(s)
            return -y if s <= 0.05 else np.full(len(y), math.nan)

        with pytest.raises(StepFailure) as exc:
            integrate_ode(f, np.array([1.0]), [0.0, 1.0])
        assert exc.value.s == pytest.approx(0.05, abs=1e-12) and len(calls) <= 1000


def _stacked_ode(f, y0, s_eval, rtol=1e-10, atol=1e-10):
    """`integrate_ode` as it was with its stages in a list, stacked at every
    stage with np.stack: the reference its stage buffer must match bit for bit."""
    s_eval = np.asarray(s_eval, dtype=float)
    direction = 1.0 if s_eval[-1] > s_eval[0] else -1.0
    y = np.asarray(y0, dtype=float).copy()
    s = s_eval[0]
    out = np.empty((len(s_eval), len(y)))
    out[0] = y
    steps = rejected = 0
    worst = 0.0
    h = direction * min(1e-3, abs(s_eval[-1] - s_eval[0]) / 10.0)
    k1 = f(s, y)
    for iout in range(1, len(s_eval)):
        target = s_eval[iout]
        while direction * (target - s) > 1e-14 * max(1.0, abs(target)):
            if direction * (s + h - target) > 0.0:
                h = target - s
            ks = [k1]
            for i in range(1, 7):
                ks.append(f(s + _C[i] * h, y + h * (_A[i] @ np.stack(ks[: len(_A[i])]))))
            ks = np.stack(ks)
            y5 = y + h * (_B5 @ ks)
            y4 = y + h * (_B4 @ ks)
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
            err = math.sqrt(float(np.mean(((y5 - y4) / scale) ** 2)))
            if err <= 1.0:
                s, y, k1 = s + h, y5, ks[6]
                steps += 1
                worst = max(worst, err)
            else:
                rejected += 1
            h *= min(5.0, max(0.2, 0.9 * (1.0 / err) ** 0.2 if err > 0.0 else 5.0))
        out[iout] = y
    return out, (steps, rejected, worst)


class TestStageBuffer:
    @pytest.mark.parametrize("f, y0, s_eval", [
        # stiff relaxation onto (cos s, sin s)
        (lambda s, y: -60.0 * (y - np.array([math.cos(s), math.sin(s)])),
         [3.0, -2.0], np.linspace(0.0, 2.0, 9)),
        # a one-component leg, backwards
        (lambda s, y: np.array([math.sin(3.0 * s) * y[0] + s]), [0.7], [1.5, 0.25, -0.5])])
    def test_bit_identical_to_stacked_stages(self, f, y0, s_eval):
        """Both reject steps, so FSAL is read after a rejection too."""
        ys, stats = integrate_ode(f, np.array(y0), s_eval)
        want, counts = _stacked_ode(f, np.array(y0), s_eval)
        assert ys.tobytes() == want.tobytes()
        assert (stats.steps, stats.rejected, stats.max_error_estimate) == counts
        assert stats.steps > 0 and stats.rejected > 0


class TestSpray:
    def test_flat_straight_line(self):
        p0 = TangentPoint(1.0, 2.0, math.pi / 2, 0.0, 1.0, 1.0, 0.0, 0.0)
        traj = integrate_spray(flat_cartesian(), p0, 1.0, 11)
        expect = p0.state()[None, :].repeat(11, axis=0)
        expect[:, 0] += traj.s
        expect[:, 1] += traj.s
        assert np.max(np.abs(traj.states - expect)) < 1e-10

    def test_round_sphere_sector_conserves_w2(self):
        # only the hard-coded theta-sector coefficients are active: the angular
        # motion is great-circle flow and w^2 is conserved
        p0 = TangentPoint(0.0, 1.0, 1.1, 0.2, 0.3, 0.0, 0.4, 0.7)
        traj = integrate_spray(flat_cartesian(), p0, 1.0, 50)
        w2 = [thd ** 2 + phd ** 2 * math.sin(th) ** 2 for _t, _r, th, _ph, _td, _rd, thd, phd
              in traj.states]
        assert max(w2) - min(w2) < 1e-9 * (1 + max(w2))

    def test_time_reversal(self):
        conn = power_law_nonsymmetric(3.0)
        p0 = TangentPoint(1.0, 2.0, math.pi / 2, 0.0, 0.2, 0.02, 0.01, 0.004)
        fwd = integrate_spray(conn, p0, 0.4, 21)
        back = integrate_spray(conn, TangentPoint(*fwd.states[-1]), -0.4, 21)
        assert np.max(np.abs(back.states[-1] - p0.state())) < 1e-8

    def test_affine_reparametrization(self):
        conn = power_law_nonsymmetric(3.0)
        base = (1.0, 2.0, math.pi / 2, 0.0)
        v = np.array([0.2, 0.02, 0.01, 0.004])
        c = 2.0
        tr1 = integrate_spray(conn, TangentPoint(*base, *v), 0.5, 26)
        tr2 = integrate_spray(conn, TangentPoint(*base, *(c * v)), 0.5 / c, 26)
        assert np.max(np.abs(tr1.states[:, :4] - tr2.states[:, :4])) < 1e-8

    def test_chart_exit_carries_last_state(self):
        conn = power_law_nonsymmetric(3.0)
        p0 = TangentPoint(1.0, 2.0, math.pi / 2, 0.0, 1.0, 0.1, 0.05, 0.02)
        with pytest.raises(ChartExit) as exc:
            integrate_spray(conn, p0, 0.5, 21)
        assert exc.value.s == pytest.approx(0.126, abs=0.01)
        assert exc.value.state[1] <= 2e-3  # r hit the guard

    def test_argument_validation(self):
        p0 = TangentPoint(1, 1, 1, 0, 1, 0, 0, 0)
        with pytest.raises(ValueError):
            integrate_spray(flat_cartesian(), p0, 1.0, 1)
        with pytest.raises(ValueError):
            integrate_spray(flat_cartesian(), p0, 0.0, 10)


@pytest.fixture(scope="module")
def ex1_built():
    conn = power_law_nonsymmetric(3.0)
    return conn, build_power_law(conn, default_grid())


class TestFinslerFlow:
    @pytest.fixture
    def ex1(self, ex1_built):
        return ex1_built

    def test_L_conserved_along_autoparallels(self, ex1):
        conn, form = ex1
        p0 = TangentPoint(1.0, 2.0, math.pi / 2, 0.0, 0.2, 0.02, 0.01, 0.004)
        traj = integrate_spray(conn, p0, 0.5, 60)
        Ls = [form.jet(TangentPoint(*st)).value for st in traj.states]
        assert (max(Ls) - min(Ls)) / abs(Ls[0]) < 1e-8

    def test_el_flow_matches_autoparallels(self, ex1):
        conn, form = ex1
        p0 = TangentPoint(1.0, 2.0, math.pi / 2, 0.0, 0.2, 0.02, 0.01, 0.004)
        tr_a = integrate_spray(conn, p0, 0.5, 40)
        tr_f = integrate_finsler(form, p0, 0.5, 40)
        scale = 1 + np.max(np.abs(tr_a.states))
        assert np.max(np.abs(tr_a.states - tr_f.states)) / scale < 1e-6

    def test_potentials_carried_not_transported(self, ex1, monkeypatch):
        # the scale potential rides in the ODE state: only the start value is
        # looked up, with one one-point values_at
        conn, form = ex1
        p0 = TangentPoint(1.0, 2.0, math.pi / 2, 0.0, 0.2, 0.02, 0.01, 0.004)
        batches = count_values_at(monkeypatch, form.scale_pot)
        tr_f = integrate_finsler(form, p0, 0.5, 100)
        assert batches == [1]
        tr_a = integrate_spray(conn, p0, 0.5, 100)
        assert tr_f.states.shape == tr_a.states.shape
        scale = 1 + np.max(np.abs(tr_a.states))
        assert np.max(np.abs(tr_a.states - tr_f.states)) / scale < 1e-6

    def test_class3_coupled_potentials(self):
        # theta = identity: the carried M is advanced at the carried G and K
        conn, _ = make_class3(101)
        form, _ = build_class3(conn, default_grid(5), "identity")
        p0 = TangentPoint(1.5, 1.5, math.pi / 2, 0.0, 1.0, 0.1, 0.05, 0.02)
        tr_f = integrate_finsler(form, p0, 0.2, 21)
        tr_a = integrate_spray(conn, p0, 0.2, 21)
        scale = 1 + np.max(np.abs(tr_a.states))
        assert np.max(np.abs(tr_a.states - tr_f.states)) / scale < 1e-6

    def test_finsler_chart_exit_reports_chart_state(self, ex1):
        _, form = ex1
        p0 = TangentPoint(1.0, 2.0, math.pi / 2, 0.0, 1.0, 0.1, 0.05, 0.02)
        with pytest.raises(ChartExit) as exc:
            integrate_finsler(form, p0, 0.5, 21)
        assert exc.value.state.shape == (8,)
        assert exc.value.state[1] <= 2e-3

    def test_trajectory_text_format(self, ex1):
        conn, _ = ex1
        p0 = TangentPoint(1.0, 2.0, math.pi / 2, 0.0, 0.2, 0.02, 0.01, 0.004)
        traj = integrate_spray(conn, p0, 0.1, 5)
        text = traj.to_text()
        lines = text.strip().split("\n")
        assert lines[0].split() == ["s", "t", "r", "theta", "phi", "tdot", "rdot",
                                    "thetadot", "phidot"]
        assert len(lines) == 6
        parsed = np.array([[float(x) for x in ln.split()] for ln in lines[1:]])
        assert parsed[0, 1:] == pytest.approx(p0.state())
