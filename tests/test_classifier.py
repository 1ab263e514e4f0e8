import numpy as np
import pytest

from berwald.classifier import (_PROBE_THETA, _PROBE_VELOCITIES, InternalInconsistency,
                                MixedClass, Tolerances, _proportionality_residuals,
                                assign_class, check_finsler_constraints, classify)
from berwald.geometry_core import (ConnectionProfile, K10Degenerate, TangentPoint,
                                   UnsupportedConnection, bracket_matrix, curvature_profile)

from conftest import (class5_broken_ricci, class5_curved_block, default_grid,
                      exponential_example, flat_cartesian, flat_spherical,
                      power_law_nonsymmetric, power_law_symmetric)
from generators import make_class3, make_class5


def schwarzschild_like() -> ConnectionProfile:
    """Levi-Civita of (1 - 1/r) tdot^2 - rdot^2/(1 - 1/r) - r^2 w^2."""
    return ConnectionProfile({
        2: "1/(2*r*(r-1))", 4: "(r-1)/(2*r^3)", 5: "-1/(2*r*(r-1))",
        9: "1/r", 10: "-(r-1)"})


def schw_grid():
    return [(float(t), float(r))
            for t in np.linspace(0.5, 2.5, 6) for r in np.linspace(2.2, 4.0, 6)]


class TestConstraints:
    def test_power_law_residuals_vanish(self, grid):
        res = check_finsler_constraints(power_law_nonsymmetric(3.0), grid)
        res.pop("__regime__")
        assert max(s.value for s in res.values()) < 1e-12

    def test_exponential_residuals_vanish(self, grid):
        res = check_finsler_constraints(exponential_example(), grid)
        res.pop("__regime__")
        scale = 1e3  # coefficients reach ~e^4 on this grid
        assert max(s.value for s in res.values()) < 1e-10 * scale

    def test_flat_trivially_zero(self, grid):
        res = check_finsler_constraints(flat_cartesian(), grid)
        regime = res.pop("__regime__")
        assert regime.at[0] == "w_zero"
        assert max(s.value for s in res.values()) == 0.0

    def test_k11_rejected(self, grid):
        with pytest.raises(UnsupportedConnection):
            check_finsler_constraints(ConnectionProfile({11: "1"}), grid)

    def test_k10_degenerate(self):
        grid = [(t, r) for t in np.linspace(0.5, 2.5, 5) for r in (1.0, 2.0)]
        conn = ConnectionProfile({7: "1", 10: "t - 1"})
        with pytest.raises(K10Degenerate):
            check_finsler_constraints(conn, grid)

    def test_mixed_corner_regime(self):
        grid = [(t, 1.0) for t in (0.5, 1.0, 1.5)]
        conn = ConnectionProfile({10: "t - 1"})
        with pytest.raises(MixedClass):
            check_finsler_constraints(conn, grid)


def _minor_residual(v1: np.ndarray, v2: np.ndarray, noise_floor: float) -> float:
    """Largest 2x2 minor of (v1, v2) over |v1| |v2|: zero iff they are
    parallel; a vector at or below the noise floor counts as zero."""
    n1 = float(np.linalg.norm(v1))
    n2 = float(np.linalg.norm(v2))
    if n1 <= noise_floor or n2 <= noise_floor:
        return 0.0
    worst = 0.0
    for i in range(4):
        for j in range(i + 1, 4):
            worst = max(worst, abs(v1[i] * v2[j] - v1[j] * v2[i]))
    return worst / (n1 * n2)


def _pointwise_residual(conn: ConnectionProfile, cp) -> float:
    """Reference: the proportionality residual at one node from the full
    depth-2 bracket matrix, rows 0, 6 and 7 ([t, r], [t, [t, r]], [r, [t, r]])."""
    data_scale = 1.0 + max(
        max(abs(cp.a[i].value) for i in range(1, 15)),
        max(abs(cp.a[i].dt) for i in range(1, 15)),
        max(abs(cp.a[i].dr) for i in range(1, 15)),
        max(abs(j.value) for j in cp.k_jets))
    noise_floor = 1e-12 * data_scale ** 2
    worst = 0.0
    for vel in _PROBE_VELOCITIES:
        p = TangentPoint(cp.t, cp.r, _PROBE_THETA, 0.0, *vel)
        mat = bracket_matrix(conn, p, 2, cp)
        worst = max(worst, _minor_residual(mat[6], mat[0], noise_floor),
                    _minor_residual(mat[7], mat[0], noise_floor))
    return worst


class TestProportionalityResiduals:
    @pytest.mark.parametrize("make", [
        lambda: power_law_nonsymmetric(3.0), power_law_symmetric, exponential_example,
        flat_cartesian, flat_spherical, class5_curved_block,
        lambda: make_class3(101)[0], lambda: make_class5(7)[0],
        lambda: make_class5(7, eps=0.1)[0]],
        ids=["example1", "example2", "exponential", "flat_cartesian", "flat_spherical",
             "class5_curved", "class3", "class5", "class5_eps"])
    def test_bit_identical_to_pointwise_brackets(self, make):
        conn = make()
        profiles = [curvature_profile(conn, *q) for q in default_grid(15)]
        batched = _proportionality_residuals(profiles)
        reference = np.array([_pointwise_residual(conn, cp) for cp in profiles])
        assert batched.tolist() == reference.tolist()


class TestAssignClass:
    def test_reference_assignments(self, grid):
        assert assign_class(power_law_nonsymmetric(3.0), grid) == 1
        assert assign_class(power_law_symmetric(), grid) == 1
        assert assign_class(exponential_example(), grid) == 2
        assert assign_class(flat_spherical(), grid) == 3
        assert assign_class(flat_cartesian(), grid) == 4
        assert assign_class(class5_curved_block(), grid) == 5

    def test_power_law_D_value(self):
        # D = 2 - 2 alpha for the non-symmetric power-law family
        for alpha in (2.5, 3.0, 5.0):
            cp = curvature_profile(power_law_nonsymmetric(alpha), 1.3, 0.9)
            assert cp.DEF[0].value == pytest.approx(2 - 2 * alpha, abs=1e-10)

    def test_exponential_DEF_values(self, grid):
        import math
        conn = exponential_example()
        for (t, r) in grid:
            cp = curvature_profile(conn, t, r)
            D, E, F = (x.value for x in cp.DEF)
            assert abs(D) < 1e-9 * (1 + abs(E))
            assert E == pytest.approx(math.exp((r - t) ** 2), rel=1e-9)
            assert F == pytest.approx(1.0, abs=1e-9)


class TestClassify:
    def test_power_law_nonsymmetric(self, grid):
        rep = classify(power_law_nonsymmetric(3.0), grid)
        assert rep.finsler_metrizable == "yes"
        assert rep.class_label == 1
        assert rep.riemann_metrizable == "no"
        assert rep.ricci_asymmetry == pytest.approx(-8.0, abs=1e-10)
        assert rep.holonomy_rank == 3
        assert rep.evidence["lambda"] == pytest.approx(0.5, abs=1e-12)

    def test_power_law_symmetric(self, grid):
        rep = classify(power_law_symmetric(), grid)
        assert rep.class_label == 1
        assert rep.riemann_metrizable == "no"   # rank 3 despite symmetric Ricci
        assert abs(rep.ricci_asymmetry) < 1e-12
        assert rep.holonomy_rank == 3
        assert rep.evidence["lambda"] == pytest.approx(0.75, abs=1e-12)

    def test_exponential(self, grid):
        rep = classify(exponential_example(), grid)
        assert rep.class_label == 2
        assert rep.riemann_metrizable == "no"
        assert rep.holonomy_rank == 3

    def test_flat_class4(self, grid):
        rep = classify(flat_cartesian(), grid)
        assert (rep.finsler_metrizable, rep.class_label) == ("yes", 4)
        assert rep.riemann_metrizable == "yes"
        assert rep.holonomy_rank == 1

    def test_flat_spherical_class3(self, grid):
        rep = classify(flat_spherical(), grid)
        assert rep.class_label == 3
        assert rep.riemann_metrizable == "yes"
        assert rep.holonomy_rank <= 2

    def test_class5_symmetric(self, grid):
        rep = classify(class5_curved_block(), grid)
        assert rep.class_label == 5
        assert rep.riemann_metrizable == "yes"
        assert rep.holonomy_rank == 2
        assert rep.evidence["a1a4-a2a3_min_abs"] > 1e-3

    def test_class5_broken_ricci(self, grid):
        rep = classify(class5_broken_ricci(0.1), grid)
        assert rep.riemann_metrizable == "no"
        assert abs(rep.ricci_asymmetry) > 0.05

    @pytest.mark.parametrize("seed, n", [(763879029, 15), (1563128166, 5)])
    def test_ricci_tolerance_is_per_node(self, seed, n):
        # |a1 + a4 + 2 a5| = 0.1 everywhere, while the grid's largest curvature
        # value is ~1e7: against that grid-wide scale the asymmetry was lost
        conn = make_class5(seed, eps=0.1)[0]
        rep = classify(conn, default_grid(n))
        assert (rep.finsler_metrizable, rep.class_label) == ("no", None)
        assert rep.riemann_metrizable == "no"
        assert "Ricci tensor not symmetric: necessary condition fails" in rep.notes
        witness = rep.evidence["ricci_witness"]
        cp = curvature_profile(conn, *witness.at)
        assert witness.value == abs(cp.ricci_asymmetry()) / (
            1.0 + np.max(np.abs(cp.a_values())))
        assert witness.value > 1e-2
        assert rep.to_dict()["evidence"]["ricci_witness"] == {
            "max": witness.value, "at": list(witness.at)}

    def test_levi_civita_only_connection_is_out_of_scope(self):
        # Schwarzschild's connection admits only quadratic metrizations: the
        # nontrivial-metrizability constraints fail, no class is assigned, and
        # the Riemann verdict stays undetermined (trivial metrizability is
        # outside the non-Riemannian taxonomy this tool implements).
        rep = classify(schwarzschild_like(), schw_grid())
        assert rep.finsler_metrizable == "no"
        assert rep.class_label is None
        assert rep.riemann_metrizable == "undetermined"
        assert rep.holonomy_rank == 3
        assert abs(rep.ricci_asymmetry) < 1e-10

    def test_report_determinism(self, grid):
        conn = power_law_nonsymmetric(3.0)
        d1 = classify(conn, grid, seed=7).to_dict()
        d2 = classify(conn, grid, seed=7).to_dict()
        assert d1 == d2

    def test_parameter_invariance(self, grid):
        # same functions through literal substitution of the parameter
        rep_a = classify(power_law_nonsymmetric(3.0), grid)
        literal = ConnectionProfile({1: "2*r", 4: "24*r^3", 6: "-6*r",
                                     8: "-2*r", 10: "3*r"})
        rep_b = classify(literal, grid)
        assert rep_a.class_label == rep_b.class_label
        assert rep_a.riemann_metrizable == rep_b.riemann_metrizable
        assert rep_a.holonomy_rank == rep_b.holonomy_rank


class TestTheoremConsistency:
    def test_yes_verdicts_obey_necessary_conditions(self, grid):
        profiles = [power_law_nonsymmetric(3.0), power_law_symmetric(),
                    exponential_example(), flat_cartesian(), flat_spherical(),
                    class5_curved_block(), class5_broken_ricci(0.1)]
        scale_tol = Tolerances()
        for conn in profiles:
            rep = classify(conn, grid)
            if rep.riemann_metrizable == "yes":
                assert rep.holonomy_rank <= 2
                scale = 1.0 + rep.evidence["constraint_scale"]
                assert abs(rep.ricci_asymmetry) < scale_tol.ricci * scale
                assert rep.evidence["ricci_witness"].value < scale_tol.ricci

    def test_class12_always_rank3(self, grid):
        for conn in (power_law_nonsymmetric(2.5), power_law_nonsymmetric(4.0),
                     power_law_symmetric(), exponential_example()):
            rep = classify(conn, grid)
            assert rep.class_label in (1, 2)
            assert rep.holonomy_rank == 3
