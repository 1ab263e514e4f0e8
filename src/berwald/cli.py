"""Command-line interface: configuration ingestion, dispatch, reporting.

Configs are a line-oriented key = value format with [section] headers;
expression values are the unquoted remainder of the line.  Reports are
emitted as a human-readable table and, with --json, as a stable JSON
document (schema "berwald-report/1").  Exit codes: 0 pass/determinate,
1 check failure or error, 2 undetermined classification, 64 usage.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from . import __version__
from .classifier import (ClassificationReport, ClassifierError, Tolerances, classify)
from .geodesic_engine import ChartExit, StepFailure, integrate_finsler, integrate_spray
from .geometry_core import (ConnectionProfile, GeometryError, TangentPoint,
                            sample_tangent_points)
from .metrizer import (MetrizerError, NotRiemannMetrizable, build_class3, build_class4,
                       build_class5, build_exponential, build_power_law)
from .scalar_field import ExpressionError, compile_expression, parameter_names, parse
from .verifier import (VerificationError, berwald_check, check_hessian, check_homogeneity,
                       check_horizontal_constancy, levi_civita_roundtrip, ResidualReport)

SCHEMA = "berwald-report/1"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_UNDETERMINED = 2
EXIT_USAGE = 64

# names accepted by --tol-override: the classifier's Tolerances, then the
# tolerances of the verifier checks and of geodesic --both
TOLERANCE_NAMES = ("zero", "nonzero", "rank_svd", "ricci", "horiz", "lc_roundtrip",
                   "hessian_det", "berwald", "geodesic")


class ConfigError(ValueError):
    def __init__(self, path: str, line_no: int, message: str):
        self.path = path
        self.line_no = line_no
        where = "%s:%d" % (path, line_no) if line_no else path
        super().__init__("%s: %s" % (where, message))


# the names a require expression reads from the sampled tangent point
_STATE_NAMES = ("t", "r", "theta", "phi", "tdot", "rdot", "thetadot", "phidot")


@dataclass
class JobConfig:
    connection: dict = dc_field(default_factory=dict)   # "k1".."k12" -> source text
    params: dict = dc_field(default_factory=dict)
    t_range: tuple = (0.5, 2.5)
    r_range: tuple = (0.5, 2.5)
    t_n: int = 15
    r_n: int = 15
    sample_count: int = 50
    seed: int = 20240601
    requires: list = dc_field(default_factory=list)     # admissibility expressions
    signature: str = "lorentzian"
    c1: float = 1.0
    c2: float = 1.0
    theta_choice: str = "identity"

    def grid(self) -> list:
        ts = np.linspace(self.t_range[0], self.t_range[1], self.t_n)
        rs = np.linspace(self.r_range[0], self.r_range[1], self.r_n)
        return [(float(t), float(r)) for t in ts for r in rs]

    def connection_profile(self) -> ConnectionProfile:
        fields = {}
        for key, src in self.connection.items():
            fields[int(key[1:])] = src
        return ConnectionProfile(fields, self.params)

    def predicate(self):
        if not self.requires:
            return None
        exprs = [parse(src) for src in self.requires]
        for src, e in zip(self.requires, exprs):
            unbound = sorted(parameter_names(e) - set(self.params) - set(_STATE_NAMES))
            if unbound:
                raise ConfigError("[samples] require = %s" % src, 0,
                                  "parameter %r is not set in [params]" % unbound[0])
        fns = [compile_expression(e) for e in exprs]

        def pred(p: TangentPoint) -> bool:
            env = dict(self.params)
            env.update({"t": p.t, "r": p.r, "theta": p.theta, "phi": p.phi,
                        "tdot": p.tdot, "rdot": p.rdot, "thetadot": p.thetadot,
                        "phidot": p.phidot})
            for src, f in zip(self.requires, fns):
                try:
                    if not f(env) > 0.0:
                        return False
                except ExpressionError:
                    return False
                except OverflowError:
                    raise ConfigError("[samples] require = %s" % src, 0, "overflows at "
                                      "(t, r, theta, phi, tdot, rdot, thetadot, phidot) = (%s)"
                                      % ", ".join("%.6g" % x for x in p.state())) from None
            return True
        return pred

    def to_dict(self) -> dict:
        return {"connection": dict(sorted(self.connection.items())),
                "params": dict(sorted(self.params.items())),
                "grid": {"t": [self.t_range[0], self.t_range[1], self.t_n],
                         "r": [self.r_range[0], self.r_range[1], self.r_n]},
                "samples": {"count": self.sample_count, "seed": self.seed,
                            "require": list(self.requires)},
                "task": {"signature": self.signature, "c1": self.c1, "c2": self.c2,
                         "theta_choice": self.theta_choice}}


_K_KEYS = {"k%d" % i for i in range(1, 13)}


def _parse_range(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("expected lo:hi:n")
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    if n < 2 or hi <= lo:
        raise ValueError("range needs hi > lo and n >= 2")
    return lo, hi, n


def load_config(path: str) -> JobConfig:
    cfg = JobConfig()
    section = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(path, 0, str(exc))
    for no, raw in enumerate(lines, start=1):
        # "#" is not in the expression grammar: it starts a (trailing) comment
        line = re.split(r"\s#", raw, maxsplit=1)[0].strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("connection", "params", "grid", "samples", "task"):
                raise ConfigError(path, no, "unknown section [%s]" % section)
            continue
        if "=" not in line:
            raise ConfigError(path, no, "expected key = value")
        key, value = (s.strip() for s in line.split("=", 1))
        key = key.lower()
        try:
            if section == "connection":
                if key not in _K_KEYS:
                    raise ValueError("unknown connection coefficient %r (k1..k12)" % key)
                parse(value)  # early diagnostic with position
                cfg.connection[key] = value
            elif section == "params":
                cfg.params[key] = float(value)
            elif section == "grid":
                if key == "t":
                    lo, hi, n = _parse_range(value)
                    cfg.t_range, cfg.t_n = (lo, hi), n
                elif key == "r":
                    lo, hi, n = _parse_range(value)
                    cfg.r_range, cfg.r_n = (lo, hi), n
                else:
                    raise ValueError("unknown grid key %r" % key)
            elif section == "samples":
                if key == "count":
                    cfg.sample_count = int(value)
                    if cfg.sample_count < 1:
                        raise ValueError("sample count must be at least 1")
                elif key == "seed":
                    cfg.seed = int(value)
                elif key == "require":
                    parse(value)
                    cfg.requires.append(value)
                else:
                    raise ValueError("unknown samples key %r" % key)
            elif section == "task":
                if key == "signature":
                    cfg.signature = value.lower()
                elif key == "c1":
                    cfg.c1 = float(value)
                elif key == "c2":
                    cfg.c2 = float(value)
                elif key == "theta_choice":
                    cfg.theta_choice = value
                else:
                    raise ValueError("unknown task key %r" % key)
            else:
                raise ValueError("key outside any [section]")
        except ExpressionError as exc:
            raise ConfigError(path, no, "bad expression: %s" % exc)
        except ValueError as exc:
            raise ConfigError(path, no, str(exc))
    return cfg


# ---------------------------------------------------------------------------
# Reporting helpers
# ---------------------------------------------------------------------------

def _print_classification(rep: ClassificationReport, quiet: bool):
    if quiet:
        return
    rows = [("finsler metrizable", rep.finsler_metrizable),
            ("class", str(rep.class_label) if rep.class_label else "none"),
            ("riemann metrizable", rep.riemann_metrizable),
            ("ricci asymmetry", "%.12g" % rep.ricci_asymmetry),
            ("holonomy rank", str(rep.holonomy_rank))]
    width = max(len(a) for a, _ in rows)
    print("classification")
    for a, b in rows:
        print("  %-*s  %s" % (width, a, b))
    shown = [k for k in ("lambda", "a1+a4_max_abs", "w_corner_regime") if k in rep.evidence]
    for k in shown:
        print("  %-*s  %s" % (width, k, rep.evidence[k]))
    for n in rep.notes:
        print("  note: %s" % n)


def _print_checks(report: ResidualReport, quiet: bool):
    if quiet:
        return
    print("checks")
    for c in report.checks:
        print("  %-28s %-4s residual %.3g (tolerance %.3g)"
              % (c.name, "PASS" if c.passed else "FAIL", c.residual, c.tolerance))


def _grid_table(form, grid) -> dict:
    """Serialize metric coefficients / scale values over the grid."""
    out = {"points": [[t, r] for (t, r) in grid]}
    if hasattr(form, "coefficient_jets"):
        vals = {"att": [], "atr": [], "arr": [], "aw": []}
        for (t, r) in grid:
            att, atr, arr, aw = form.coefficient_jets(t, r)
            vals["att"].append(att.value)
            vals["atr"].append(atr.value)
            vals["arr"].append(arr.value)
            vals["aw"].append(aw.value)
        out["coefficients"] = vals
    elif form.scale_pot.names == ["psi"]:
        out["scale"] = [math.exp(form.scale_pot.values(t, r)["psi"] + form.log_scale)
                        for (t, r) in grid]
    else:
        vals = {n: [] for n in form.scale_pot.names}
        for (t, r) in grid:
            v = form.scale_pot.values(t, r)
            for n in form.scale_pot.names:
                vals[n].append(v[n])
        out["potentials"] = vals
    return out


def _json_default(o):
    if isinstance(o, (np.bool_,)):
        return bool(o)
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError("not JSON serializable: %r" % type(o))


def _emit_json(path: Optional[str], doc: dict):
    if not path:
        return
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _tol_from_overrides(overrides: dict) -> Tolerances:
    tols = Tolerances()
    for name in ("zero", "nonzero", "rank_svd", "ricci"):
        if name in overrides:
            setattr(tols, name, overrides[name])
    return tols


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _classification_exit(rep: ClassificationReport) -> int:
    if rep.finsler_metrizable == "undetermined" or rep.riemann_metrizable == "undetermined":
        return EXIT_UNDETERMINED
    if rep.finsler_metrizable == "yes" and rep.class_label is None \
            and not rep.riemann_metrizable.startswith("yes"):
        return EXIT_UNDETERMINED
    return EXIT_OK


def cmd_classify(cfg: JobConfig, args, overrides: dict) -> int:
    conn = cfg.connection_profile()
    tols = _tol_from_overrides(overrides)
    rep = classify(conn, cfg.grid(), seed=cfg.seed, tols=tols)
    _print_classification(rep, args.quiet)
    doc = {"schema": SCHEMA, "command": "classify", "seed": cfg.seed,
           "config": cfg.to_dict(), "classification": rep.to_dict()}
    status = _classification_exit(rep)
    doc["exit_status"] = status
    _emit_json(args.json, doc)
    return status


def _build_forms(cfg: JobConfig, conn: ConnectionProfile, rep: ClassificationReport):
    grid = cfg.grid()
    forms = {}
    if rep.class_label == 1:
        forms["finsler"] = build_power_law(conn, grid)
    elif rep.class_label == 2:
        forms["finsler"] = build_exponential(conn, grid)
    elif rep.class_label == 3:
        fins, riem = build_class3(conn, grid, cfg.theta_choice)
        forms["finsler"] = fins
        forms["riemann"] = riem
    elif rep.class_label == 4:
        forms["riemann"] = build_class4(conn, grid, cfg.signature)
    elif rep.class_label == 5:
        if rep.riemann_metrizable != "yes":
            raise NotRiemannMetrizable(
                "class 5 with a1 + a4 != 0: no affinely equivalent metric exists")
        forms["riemann"] = build_class5(conn, grid, cfg.c1, cfg.c2)
    return forms


def _verify_forms(cfg: JobConfig, conn: ConnectionProfile, forms: dict,
                  overrides: dict, deep: bool) -> ResidualReport:
    grid = cfg.grid()
    rng = np.random.default_rng(cfg.seed)
    report = ResidualReport(seed=cfg.seed)
    pred = cfg.predicate()

    def samples_for(form, n):
        def ok(p):
            if pred is not None and not pred(p):
                return False
            return form.admissible(p)
        return sample_tangent_points(rng, cfg.t_range, cfg.r_range, n, ok)

    fins = forms.get("finsler")
    if fins is not None:
        pts = samples_for(fins, cfg.sample_count)
        report.add(check_horizontal_constancy(fins, conn, pts,
                                              overrides.get("horiz", 1e-7)))
        report.add(check_homogeneity(fins, pts))
        report.add(check_hessian(fins, pts, overrides.get("hessian_det", 1e-10)))
        if deep:
            report.add(berwald_check(fins, pts[:6], overrides.get("berwald", 1e-5)))
    riem = forms.get("riemann")
    if riem is not None:
        pts = samples_for(riem, max(20, cfg.sample_count // 2))
        report.add(levi_civita_roundtrip(riem, conn, grid,
                                         overrides.get("lc_roundtrip", 1e-6)))
        report.add(check_horizontal_constancy(
            riem, conn, pts, overrides.get("horiz", 1e-7),
            name="horizontal-constancy-riemann"))
        report.add(check_hessian(riem, pts, overrides.get("hessian_det", 1e-10),
                                 name="hessian-nondegeneracy-riemann"))
    return report


def _forms_doc(cfg: JobConfig, forms: dict) -> dict:
    grid = cfg.grid()
    doc = {}
    for slot, form in forms.items():
        doc[slot] = {"description": form.describe(), "table": _grid_table(form, grid)}
    return doc


def cmd_metrize(cfg: JobConfig, args, overrides: dict, deep: bool = False,
                command: str = "metrize") -> int:
    conn = cfg.connection_profile()
    tols = _tol_from_overrides(overrides)
    rep = classify(conn, cfg.grid(), seed=cfg.seed, tols=tols)
    _print_classification(rep, args.quiet)
    doc = {"schema": SCHEMA, "command": command, "seed": cfg.seed,
           "config": cfg.to_dict(), "classification": rep.to_dict()}
    status = _classification_exit(rep)
    if rep.class_label is None:
        # nothing to build: error when determinately unmetrizable, else undetermined
        status = EXIT_FAIL if status == EXIT_OK else status
        doc["exit_status"] = status
        _emit_json(args.json, doc)
        if not args.quiet:
            print("no determinate class: nothing to build")
        return status

    forms = _build_forms(cfg, conn, rep)
    report = _verify_forms(cfg, conn, forms, overrides, deep)
    _print_checks(report, args.quiet)
    doc["checks"] = report.to_dict()
    if not report.all_passed():
        failed = ", ".join(c.name for c in report.failed())
        doc["exit_status"] = EXIT_FAIL
        doc["refused"] = failed
        _emit_json(args.json, doc)
        if not args.quiet:
            print("REFUSED: certification failed for: %s" % failed)
        return EXIT_FAIL
    doc["forms"] = _forms_doc(cfg, forms)
    doc["exit_status"] = EXIT_OK
    _emit_json(args.json, doc)
    return EXIT_OK


def cmd_verify(cfg: JobConfig, args, overrides: dict) -> int:
    """``verify`` and ``report``: metrize plus the deeper checks, reported
    under the command that was invoked."""
    return cmd_metrize(cfg, args, overrides, deep=True, command=args.command)


def cmd_geodesic(cfg: JobConfig, args, overrides: dict) -> int:
    conn = cfg.connection_profile()
    try:
        state = [float(x) for x in args.state.split(",")]
        if len(state) != 8:
            raise ValueError
    except ValueError:
        print("error: --state needs 8 comma-separated numbers "
              "(t,r,theta,phi,tdot,rdot,thetadot,phidot)", file=sys.stderr)
        return EXIT_USAGE
    p0 = TangentPoint(*state)
    doc = {"schema": SCHEMA, "command": "geodesic", "seed": cfg.seed,
           "config": cfg.to_dict(), "T": args.T, "n_out": args.n_out,
           "initial_state": state}
    try:
        traj = integrate_spray(conn, p0, args.T, args.n_out)
    except ChartExit as exc:
        last = [float(x) for x in exc.state]
        doc["chart_exit"] = {"s": exc.s, "last_state": last, "reason": exc.reason}
        doc["exit_status"] = EXIT_FAIL
        _emit_json(args.json, doc)
        if not args.quiet:
            print("chart exit at s = %g (%s); last good state %s"
                  % (exc.s, exc.reason, ["%.6g" % x for x in last]))
        return EXIT_FAIL
    out_path = args.out or "trajectory.txt"
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(traj.to_text())
    doc["trajectory_file"] = out_path
    doc["stats"] = {"steps": traj.steps, "rejected_steps": traj.rejected_steps,
                    "max_error_estimate": traj.max_error_estimate}
    if not args.quiet:
        print("wrote %s (%d states, %d steps, %d rejected)"
              % (out_path, len(traj.s), traj.steps, traj.rejected_steps))
    if args.both:
        rep = classify(conn, cfg.grid(), seed=cfg.seed)
        forms = _build_forms(cfg, conn, rep)
        fins = forms.get("finsler")
        if fins is None:
            print("error: no Finsler form available for --both", file=sys.stderr)
            return EXIT_FAIL
        traj_f = integrate_finsler(fins, p0, args.T, args.n_out)
        out2 = out_path + ".finsler"
        with open(out2, "w", encoding="utf-8") as fh:
            fh.write(traj_f.to_text())
        scale = 1.0 + float(np.max(np.abs(traj.states)))
        disc = float(np.max(np.abs(traj.states - traj_f.states))) / scale
        doc["finsler_trajectory_file"] = out2
        doc["discrepancy"] = disc
        if not args.quiet:
            print("wrote %s; sup-norm discrepancy %.3g" % (out2, disc))
        if disc > overrides.get("geodesic", 1e-6):
            doc["exit_status"] = EXIT_FAIL
            _emit_json(args.json, doc)
            return EXIT_FAIL
    doc["exit_status"] = EXIT_OK
    _emit_json(args.json, doc)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_common(sp):
    sp.add_argument("config", help="job configuration file")
    sp.add_argument("--json", metavar="PATH", help="write the JSON report here")
    sp.add_argument("--grid", metavar="NxM", help="override grid resolution")
    sp.add_argument("--seed", type=int, help="override sampling seed")
    sp.add_argument("--tol-override", action="append", default=[],
                    metavar="NAME=VALUE", help="override a named tolerance")
    sp.add_argument("--quiet", action="store_true")


def main(argv=None) -> int:
    parser = _Parser(prog="berwald",
                     description="Classify and metrize SO(3)-invariant connections.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("classify", "metrize", "verify", "report"):
        _add_common(sub.add_parser(name))
    gp = sub.add_parser("geodesic")
    _add_common(gp)
    gp.add_argument("--state", required=True,
                    help="initial t,r,theta,phi,tdot,rdot,thetadot,phidot")
    gp.add_argument("--T", type=float, required=True, help="parameter span")
    gp.add_argument("--n-out", type=int, default=100)
    gp.add_argument("--out", help="trajectory file path")
    gp.add_argument("--both", action="store_true",
                    help="also integrate the built Finsler form and compare")

    args = parser.parse_args(argv)

    overrides = {}
    for item in args.tol_override:
        if "=" not in item:
            print("error: --tol-override needs NAME=VALUE", file=sys.stderr)
            return EXIT_USAGE
        name, value = item.split("=", 1)
        name = name.strip()
        if name not in TOLERANCE_NAMES:
            print("error: unknown tolerance %r (valid: %s)"
                  % (name, ", ".join(TOLERANCE_NAMES)), file=sys.stderr)
            return EXIT_USAGE
        try:
            overrides[name] = float(value)
        except ValueError:
            print("error: bad tolerance value %r" % value, file=sys.stderr)
            return EXIT_USAGE

    try:
        cfg = load_config(args.config)
        if args.grid:
            try:
                n, m = (int(x) for x in args.grid.lower().split("x"))
            except ValueError:
                print("error: --grid needs NxM", file=sys.stderr)
                return EXIT_USAGE
            if n < 2 or m < 2:
                print("error: --grid needs at least 2 points per side", file=sys.stderr)
                return EXIT_USAGE
            cfg.t_n, cfg.r_n = n, m
        if args.seed is not None:
            cfg.seed = args.seed
        handler = {"classify": cmd_classify, "metrize": cmd_metrize,
                   "verify": cmd_verify, "geodesic": cmd_geodesic,
                   "report": cmd_verify}[args.command]
        return handler(cfg, args, overrides)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_FAIL
    except ExpressionError as exc:
        print("expression error: %s" % exc, file=sys.stderr)
        return EXIT_FAIL
    except (GeometryError, ClassifierError, MetrizerError, VerificationError,
            StepFailure) as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
