"""Job sets of the three workloads, generated from one workload seed.

Every job is a config text (written to a file and handed to ``berwald``), the
command-line arguments of one ``berwald.cli.main`` call, and the outcome the
paper's construction of that connection implies.  The expected outcomes are
fixed here from the constructions, never read back from the program:

* the power-law examples are class 1, the exponential example class 2, both
  Finsler-metrizable and not Riemann-metrizable, holonomy rank 3;
* the generated class-3 profile is the Levi-Civita connection of a metric
  with flat tr-block and nonconstant angular coefficient, pulled back through
  a random polynomial chart: class 3, Riemann-metrizable;
* flat spherical (Minkowski in spherical coordinates) is class 3, rank 0;
  flat Cartesian (all k_i = 0) is class 4, rank 1;
* the class-5 profiles are Levi-Civita connections of
  diag(e^{2 psi}, -e^{2 chi}) + C2 w^2: class 5, Riemann-metrizable; adding
  eps*t to k5 makes the Ricci tensor asymmetric (a1 + a4 = -eps), so Riemann
  "no" -- the construction fixes no other verdict of that profile;
* a random polynomial profile violates the Finsler constraints and has an
  asymmetric Ricci tensor: Finsler "no", Riemann "no", no class.

Every construction of a metrizable job must certify (``verify`` exits 0 and
emits its forms); the broken class-5 job must be refused with exit 1.

Configs are serialized with ``ScalarField.source()``, so generated fields
reach the program as plain expression text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from berwald import ConnectionProfile, ScalarField, curvature_profile

GRID_BOX = (0.5, 2.5)

# Start states of the dual-integrator acceptance criterion.  The Example-1
# state is the slow parametrization that stays in the chart over T = 0.5.
STATE_EX1 = (1.0, 2.0, math.pi / 2, 0.0, 0.2, 0.02, 0.01, 0.004)
STATE_EX2 = (1.0, 1.0, math.pi / 2, 0.0, 1.0, 0.5, 0.1, 0.05)
STATE_EXP = STATE_EX2


@dataclass
class Job:
    name: str
    config: str
    args: list                      # berwald argv after "<command> <config>"
    command: str
    expect: dict = field(default_factory=dict)


# -- fixed example profiles ---------------------------------------------------

EX1 = {"k1": "2*r*(alpha-2)", "k4": "4*alpha*r^3*(alpha-1)", "k6": "-2*alpha*r",
       "k8": "-2*r", "k10": "alpha*r"}
EX1_PARAMS = {"alpha": 3.0}
EX1_REQUIRE = ["tdot",
               "4*alpha*r^2*tdot^2 - 4*tdot*rdot - alpha*(thetadot^2 + phidot^2*sin(theta)^2)"]

EX2 = {"k1": "r", "k5": "t/3", "k9": "t/3", "k10": "t/3"}
EX2_REQUIRE = ["tdot", "rdot^2 - thetadot^2 - phidot^2*sin(theta)^2"]

_W = "r*exp((r-t)^2) - 3*t^3 + 5*r*t^2 - 2*r^2*t"
_K1 = "r - 4*t - (%s)" % _W
_K2 = "(%s) + 2*t" % _W
EXPONENTIAL = {"k1": _K1, "k2": _K2, "k3": "-((%s) + 2*(%s))" % (_K1, _K2),
               "k4": "2*(%s) + (%s) + 2*t" % (_K1, _K2), "k5": "-(%s) + 2*t" % _K2,
               "k6": "-(%s) - 2*t" % _K1, "k7": "t", "k8": "-t", "k9": "t", "k10": "t"}

FLAT_SPHERICAL = {"k9": "1/r", "k10": "-r"}
FLAT_CARTESIAN = {}
CLASS5_CURVED = {"k2": "r", "k4": "r*exp(r^2)"}


# -- generated profiles ------------------------------------------------------

def _sf(src: str) -> ScalarField:
    return ScalarField(src)


def _probe_grid(n: int = 7):
    pts = np.linspace(GRID_BOX[0], GRID_BOX[1], n)
    return [(float(t), float(r)) for t in pts for r in pts]


def _sources(fields: dict) -> dict:
    return {"k%d" % i: f.source() for i, f in sorted(fields.items())}


def make_class3(seed: int) -> dict:
    """Random class-3 profile: the Levi-Civita connection of

        [(b0^2/c0) e^{2f} + C] dT^2 + 2 b0 e^{2f} dT dR + c0 e^{2f} dR^2 - e^{2f} w^2,
        f = f1 xi + f2 xi^2,  xi = T + (c0/b0) R,

    pulled back through the chart T = t + am r^2, R = r + bm t^2.
    """
    rng = np.random.default_rng(seed)
    for _ in range(40):
        b0 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.8, 1.6))
        c0 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.8, 1.6))
        rng.choice([-1.0, 1.0]) * rng.uniform(0.7, 1.5)  # C: metric only, unused here
        f1 = float(rng.uniform(0.15, 0.35) * rng.choice([-1.0, 1.0]))
        f2 = float(rng.uniform(-0.05, 0.05))
        am = float(rng.uniform(-0.12, 0.12))
        bm = float(rng.uniform(-0.12, 0.12))

        t, r = _sf("t"), _sf("r")
        T, R = t + am * r * r, r + bm * t * t
        Tt, Tr = ScalarField.constant(1.0), 2.0 * am * r
        Rt, Rr = 2.0 * bm * t, ScalarField.constant(1.0)
        det = Tt * Rr - Tr * Rt
        it_T, it_R = Rr / det, -Tr / det             # rows of the inverse chart map
        ir_T, ir_R = -Rt / det, Tt / det
        fp = f1 + 2.0 * f2 * (T + (c0 / b0) * R)     # f'(xi) in the new chart
        k4o, k5o, k6o = (b0 / c0) * fp, (c0 / b0) * fp, fp
        k8o, k9o, k10o = fp, (c0 / b0) * fp, (1.0 / b0) * fp
        # tr-block transformation S_bc = J^beta_b M_{beta gamma} J^gamma_c
        s_tt = k4o * Tt * Tt + 2.0 * k6o * Tt * Rt + k5o * Rt * Rt
        s_tr = k4o * Tt * Tr + k6o * (Tt * Rr + Tr * Rt) + k5o * Rt * Rr
        s_rr = k4o * Tr * Tr + 2.0 * k6o * Tr * Rr + k5o * Rr * Rr
        d2T, d2R = ScalarField.constant(2.0 * am), ScalarField.constant(2.0 * bm)
        fields = {
            1: it_R * (s_tt + d2R), 2: it_R * s_tr, 3: it_T * d2T + it_R * s_rr,
            4: ir_R * (s_tt + d2R), 5: ir_T * d2T + ir_R * s_rr, 6: ir_R * s_tr,
            7: it_R * k10o, 8: k8o * Tt + k9o * Rt, 9: k8o * Tr + k9o * Rr,
            10: ir_R * k10o,
        }
        conn = ConnectionProfile(fields)
        if all(abs(det.value(*q)) >= 0.3 and abs(fp.value(*q)) >= 0.05
               and curvature_profile(conn, *q).corner == "generic"
               for q in _probe_grid()):
            return _sources(fields)
    raise RuntimeError("class-3 generator found no usable profile for seed %d" % seed)


def make_class5(seed: int, eps: float = 0.0) -> dict:
    """Random class-5 profile from diag(e^{2 psi}, -e^{2 chi}) + C2 w^2.

    ``eps`` != 0 adds eps*t to k5, so a1 + a4 = -eps: no longer
    Riemann-metrizable.
    """
    rng = np.random.default_rng(seed)
    for _ in range(40):
        p = rng.uniform(-0.3, 0.3, size=4)
        q = rng.uniform(-0.3, 0.3, size=4)
        p[3] = rng.uniform(0.25, 0.5)  # keeps a2, a3 away from zero
        psi = _sf("%r*t + %r*r + %r*t*r + %r*r^2" % tuple(map(float, p)))
        chi = _sf("%r*t + %r*r + %r*t*r + %r*t^2" % tuple(map(float, q)))
        psi_t = _sf("%r + %r*r" % (float(p[0]), float(p[2])))
        psi_r = _sf("%r + %r*t + %r*r" % (float(p[1]), float(p[2]), float(2 * p[3])))
        chi_t = _sf("%r + %r*r + %r*t" % (float(q[0]), float(q[2]), float(2 * q[3])))
        chi_r = _sf("%r + %r*t" % (float(q[1]), float(q[2])))
        exp_of = ScalarField("exp(x)")
        fields = {1: psi_t, 2: psi_r,
                  3: chi_t * exp_of.substitute({"x": (chi - psi) * 2.0}),
                  4: psi_r * exp_of.substitute({"x": (psi - chi) * 2.0}),
                  5: chi_r, 6: chi_t}
        if eps:
            fields[5] = fields[5] + _sf("%r*t" % eps)
        conn = ConnectionProfile(fields)
        good = True
        for pt in _probe_grid():
            a = curvature_profile(conn, *pt).a
            a1, a2, a3, a4 = (a[i].value for i in range(1, 5))
            if abs(a1 * a4 - a2 * a3) < 0.05 or max(map(abs, (a1, a2, a3, a4))) < 0.05:
                good = False
                break
        if good:
            return _sources(fields)
    raise RuntimeError("class-5 generator found no usable profile for seed %d" % seed)


def make_random_polynomial(seed: int) -> dict:
    """Quadratic polynomials k1..k9 with k10 bounded away from zero on the box,
    so the angular corner stays generic; generically no constraint holds."""
    rng = np.random.default_rng(seed)
    out = {}
    for i in range(1, 10):
        c = rng.uniform(-1.0, 1.0, size=6)
        out["k%d" % i] = "%r + %r*t + %r*r + %r*t*r + %r*t^2 + %r*r^2" % tuple(map(float, c))
    sign = float(rng.choice([-1.0, 1.0]))
    u = rng.uniform(-0.2, 0.2, size=2)
    out["k10"] = "%r*(1.5 + %r*t + %r*r)" % (sign, float(u[0]), float(u[1]))
    return out


# -- config text -------------------------------------------------------------

def config_text(connection: dict, params: dict | None = None, grid_n: int = 15,
                samples: int = 50, seed: int = 20240601, require=()) -> str:
    lines = ["[connection]"]
    lines += ["%s = %s" % (k, v) for k, v in sorted(connection.items(),
                                                   key=lambda kv: int(kv[0][1:]))]
    if params:
        lines += ["", "[params]"] + ["%s = %r" % kv for kv in sorted(params.items())]
    lines += ["", "[grid]",
              "t = %r:%r:%d" % (GRID_BOX[0], GRID_BOX[1], grid_n),
              "r = %r:%r:%d" % (GRID_BOX[0], GRID_BOX[1], grid_n),
              "", "[samples]", "count = %d" % samples, "seed = %d" % seed]
    lines += ["require = %s" % src for src in require]
    return "\n".join(lines) + "\n"


def _verdict(cls, finsler="yes", riemann="no", rank=None) -> dict:
    out = {"class": cls, "finsler_metrizable": finsler, "riemann_metrizable": riemann,
           "exit_status": 0}
    if rank is not None:
        out["holonomy_rank"] = rank
    return out


def _seeds(seed: int, n: int) -> list:
    return [int(s) for s in np.random.default_rng(seed).integers(1, 2 ** 31 - 1, size=n)]


# Job-set sizes are below the command defaults (30x30 classify grid, 15x15
# verify grid, T = 0.5 with 100 output points) so that one pass takes seconds
# and a run of every workload fits the measurement budget.

def classify_sweep(seed: int, grid: str = "15x15") -> list:
    s3, s5, s5b, spoly, sample = _seeds(seed, 5)

    def job(name, conn, expect, params=None):
        return Job(name, config_text(conn, params, seed=sample), ["--grid", grid],
                   "classify", expect)

    return [
        job("ex1", EX1, _verdict(1, rank=3), EX1_PARAMS),
        job("ex2", EX2, _verdict(1, rank=3)),
        job("exponential", EXPONENTIAL, _verdict(2, rank=3)),
        job("class3_gen", make_class3(s3), _verdict(3, riemann="yes")),
        job("flat_spherical", FLAT_SPHERICAL, _verdict(3, riemann="yes", rank=0)),
        job("flat_cartesian", FLAT_CARTESIAN, _verdict(4, riemann="yes", rank=1)),
        job("class5_curved", CLASS5_CURVED, _verdict(5, riemann="yes")),
        job("class5_gen", make_class5(s5), _verdict(5, riemann="yes")),
        # the construction fixes only the Riemann verdict of the perturbed profile
        job("class5_broken", make_class5(s5b, eps=0.1), {"riemann_metrizable": "no"}),
        job("random_poly", make_random_polynomial(spoly), _verdict(None, finsler="no")),
    ]


def certify(seed: int, grid: str = "5x5", samples: int = 50) -> list:
    s3, s5b, sample = _seeds(seed + 1, 3)

    def job(name, conn, expect, params=None, require=()):
        return Job(name, config_text(conn, params, samples=samples, seed=sample,
                                     require=require),
                   ["--grid", grid], "verify", expect)

    return [
        job("ex1", EX1, dict(_verdict(1), forms=["finsler"]), EX1_PARAMS, EX1_REQUIRE),
        job("exponential", EXPONENTIAL, dict(_verdict(2), forms=["finsler"])),
        job("class3_gen", make_class3(s3),
            dict(_verdict(3, riemann="yes"), forms=["finsler", "riemann"])),
        job("flat_cartesian", FLAT_CARTESIAN,
            dict(_verdict(4, riemann="yes"), forms=["riemann"])),
        job("class5_curved", CLASS5_CURVED,
            dict(_verdict(5, riemann="yes"), forms=["riemann"])),
        # nothing to certify: refused with exit 1 and no forms
        job("class5_broken", make_class5(s5b, eps=0.1),
            {"exit_status": 1, "riemann_metrizable": "no", "forms": []}),
    ]


def geodesic(seed: int, T: float = 0.1, n_out: int = 20) -> list:
    (sample,) = _seeds(seed + 2, 1)

    def job(name, conn, state, params=None, require=()):
        return Job(name, config_text(conn, params, seed=sample, require=require),
                   ["--state", ",".join("%r" % float(x) for x in state),
                    "--T", repr(T), "--n-out", str(n_out), "--both"],
                   "geodesic", {"exit_status": 0, "discrepancy_max": 1e-6})

    return [
        job("ex1", EX1, STATE_EX1, EX1_PARAMS, EX1_REQUIRE),
        job("ex2", EX2, STATE_EX2, require=EX2_REQUIRE),
        job("exponential", EXPONENTIAL, STATE_EXP),
    ]


WORKLOADS = {"classify_sweep": classify_sweep, "certify": certify, "geodesic": geodesic}
