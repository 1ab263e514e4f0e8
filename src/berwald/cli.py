"""Command-line interface: configuration ingestion, dispatch, reporting.

Configs are a line-oriented key = value format with [section] headers;
expression values are the unquoted remainder of the line.  Reports are
emitted as a human-readable table and, with --json, as a stable JSON
document (schema "berwald-report/1").  Exit codes: 0 pass/determinate,
1 check failure or error, 2 undetermined classification, 64 usage.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from . import __version__
from .classifier import (ClassificationReport, ClassifierError, Tolerances, classify)
from .geodesic_engine import (ChartExit, StepFailure, discrepancy, integrate_finsler,
                              integrate_spray)
from .geometry_core import ConnectionProfile, GeometryError, TangentPoint
from .metrizer import (_THETA_BUILTINS, SIGNATURES, MetrizerError, NotRiemannMetrizable,
                       build_class3, build_class4, build_class5, build_exponential,
                       build_power_law)
from .scalar_field import (FUNCTIONS, VARIABLES, ExpressionError, Param, compile_program,
                           parameter_names, parse)
from .verifier import (VerificationError, berwald_check, check_hessian, check_homogeneity,
                       check_horizontal_constancy, draw_jets, levi_civita_roundtrip,
                       ResidualReport)

SCHEMA = "berwald-report/1"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_UNDETERMINED = 2
EXIT_USAGE = 64

# names accepted by --tol-override: the classifier's Tolerances, then the
# tolerances of the verifier checks and of geodesic --both
TOLERANCE_NAMES = ("zero", "nonzero", "rank_svd", "ricci", "horiz", "lc_roundtrip",
                   "hessian_det", "berwald", "geodesic")


class OutputError(RuntimeError):
    """An output file that cannot be written."""


class ConfigError(ValueError):
    def __init__(self, path: str, line_no: int, message: str):
        self.path = path
        self.line_no = line_no
        where = "%s:%d" % (path, line_no) if line_no else path
        super().__init__("%s: %s" % (where, message))


# the names a require expression reads from the sampled tangent point
_STATE_NAMES = ("t", "r", "theta", "phi", "tdot", "rdot", "thetadot", "phidot")


class _Source(str):
    """Expression text that carries its parsed field, ``field``."""

    def __new__(cls, text: str):
        self = super().__new__(cls, text)
        self.field = parse(text)
        return self


@dataclass
class JobConfig:
    connection: dict = dc_field(default_factory=dict)   # "k1".."k12" -> `_Source`
    params: dict = dc_field(default_factory=dict)
    t_range: tuple = (0.5, 2.5)
    r_range: tuple = (0.5, 2.5)
    t_n: int = 15
    r_n: int = 15
    sample_count: int = 50
    seed: int = 20240601
    requires: list = dc_field(default_factory=list)     # admissibility `_Source`s
    signature: str = "lorentzian"
    c1: float = 1.0
    c2: float = 1.0
    theta_choice: str = "identity"

    def grid(self) -> list:
        ts = np.linspace(self.t_range[0], self.t_range[1], self.t_n)
        rs = np.linspace(self.r_range[0], self.r_range[1], self.r_n)
        return [(float(t), float(r)) for t in ts for r in rs]

    def connection_profile(self) -> ConnectionProfile:
        return ConnectionProfile({int(k[1:]): src.field for k, src in self.connection.items()},
                                 self.params)

    def predicate(self):
        if not self.requires:
            return None
        for src in self.requires:
            unbound = sorted(parameter_names(src.field) - set(self.params) - set(_STATE_NAMES))
            if unbound:
                raise ConfigError("[samples] require = %s" % src, 0,
                                  "parameter %r is not set in [params]" % unbound[0])
        fns = [compile_program([src.field]) for src in self.requires]

        def pred(p: TangentPoint) -> bool:
            env = dict(self.params)
            env.update({"t": p.t, "r": p.r, "theta": p.theta, "phi": p.phi,
                        "tdot": p.tdot, "rdot": p.rdot, "thetadot": p.thetadot,
                        "phidot": p.phidot})
            for src, f in zip(self.requires, fns):
                try:
                    if not f(env)[0] > 0.0:
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
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("range bounds must be finite")
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
        if section != "params":   # a parameter's name is case-sensitive, as expressions are
            key = key.lower()
        try:
            if section == "connection":
                if key not in _K_KEYS:
                    raise ValueError("unknown connection coefficient %r (k1..k12)" % key)
                cfg.connection[key] = _Source(value)   # a bad one fails here, with its position
            elif section == "params":
                try:   # the key must be what an expression reads as a parameter
                    read_as = parse(key)
                except ExpressionError:
                    read_as = None
                if not isinstance(read_as, Param):
                    raise ValueError("%r is not a parameter name: t and r are variables, pi "
                                     "a number and %s functions" % (key, ", ".join(FUNCTIONS)))
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
                    if cfg.seed < 0:
                        raise ValueError("sample seed must be a non-negative integer")
                elif key == "require":
                    cfg.requires.append(_Source(value))
                else:
                    raise ValueError("unknown samples key %r" % key)
            elif section == "task":
                if key == "signature":
                    cfg.signature = value.lower()
                    if cfg.signature not in SIGNATURES:
                        raise ValueError("signature must be one of %s" % ", ".join(SIGNATURES))
                elif key in ("c1", "c2"):   # the class-5 constants
                    c = float(value)
                    if not (math.isfinite(c) and c != 0.0):
                        raise ValueError("%s must be a finite, nonzero number" % key)
                    setattr(cfg, key, c)
                elif key == "theta_choice":   # a built-in name, or Theta as an expression in z
                    if value not in _THETA_BUILTINS:
                        other = sorted(x.name for x in parse(value).leaves() if x is not Param("z"))
                        if other:
                            kind = "variable" if other[0] in VARIABLES else "parameter"
                            raise ValueError("theta_choice must be %s or an expression in z "
                                             "alone: it reads %s %r"
                                             % (", ".join(_THETA_BUILTINS), kind, other[0]))
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
    pots = form.scale_pot
    table = pots.values_at(grid) if pots is not None else None
    if hasattr(form, "coefficient_table"):
        values = form.coefficient_table(grid, table)[:, :, 0]
        out["coefficients"] = dict(zip(("att", "atr", "arr", "aw"), values.T.tolist()))
    elif pots.names == ["psi"]:
        out["scale"] = [math.exp(psi) for psi in table[:, 0].tolist()]
    else:
        out["potentials"] = dict(zip(pots.names, table.T.tolist()))
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


def _check_writable(path: str) -> None:
    """Raise OutputError, before any work, where ``path`` cannot be written."""
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        reason = "no such directory %s" % folder
    elif os.path.isdir(path):
        reason = "is a directory"
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        reason = "permission denied"
    else:
        return
    raise OutputError("cannot write %s: %s" % (path, reason))


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError("cannot write %s: %s" % (path, exc.strerror or exc)) from None


def _emit_json(path: Optional[str], doc: dict):
    if path:
        _write_text(path, json.dumps(doc, indent=2, sort_keys=True, default=_json_default)
                    + "\n")


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

    fins = forms.get("finsler")
    if fins is not None:
        jets = draw_jets(fins, rng, cfg.t_range, cfg.r_range, cfg.sample_count, pred)
        report.add(check_horizontal_constancy(jets, conn, overrides.get("horiz", 1e-7)))
        report.add(check_homogeneity(jets))
        report.add(check_hessian(jets, overrides.get("hessian_det", 1e-10)))
        if deep:
            report.add(berwald_check(jets, conn, overrides.get("berwald", 1e-5)))
    riem = forms.get("riemann")
    if riem is not None:
        jets = draw_jets(riem, rng, cfg.t_range, cfg.r_range, max(20, cfg.sample_count // 2),
                         pred)
        report.add(levi_civita_roundtrip(riem, conn, grid,
                                         overrides.get("lc_roundtrip", 1e-6)))
        report.add(check_horizontal_constancy(jets, conn, overrides.get("horiz", 1e-7),
                                              name="horizontal-constancy-riemann"))
        report.add(check_hessian(jets, overrides.get("hessian_det", 1e-10),
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


def _usage_error(message: str) -> int:
    print("error: %s" % message, file=sys.stderr)
    return EXIT_USAGE


class _BadArgument(ValueError):
    """A bad command-line argument: a usage error (exit 64)."""


def _grid_size(text: str) -> tuple:
    try:
        n, m = (int(x) for x in text.lower().split("x"))
    except ValueError:
        raise _BadArgument("--grid needs NxM") from None
    if n < 2 or m < 2:
        raise _BadArgument("--grid needs at least 2 points per side")
    return n, m


def _initial_point(args) -> TangentPoint:
    """The geodesic's initial tangent point from --state; --T and --n-out checked."""
    try:
        state = [float(x) for x in args.state.split(",")]
        if len(state) != 8:
            raise ValueError
    except ValueError:
        raise _BadArgument("--state needs 8 comma-separated numbers "
                           "(t,r,theta,phi,tdot,rdot,thetadot,phidot)") from None
    if not all(map(math.isfinite, state)):
        raise _BadArgument("--state components must be finite")
    try:
        p0 = TangentPoint(*state)
    except ValueError as exc:
        raise _BadArgument("--state: %s" % exc) from None
    if args.T == 0.0 or not math.isfinite(args.T):
        raise _BadArgument("--T must be finite and nonzero")
    if args.n_out < 2:
        raise _BadArgument("--n-out must be at least 2")
    return p0


def cmd_geodesic(cfg: JobConfig, args, overrides: dict, p0: TangentPoint) -> int:
    conn = cfg.connection_profile()
    doc = {"schema": SCHEMA, "command": "geodesic", "seed": cfg.seed,
           "config": cfg.to_dict(), "T": args.T, "n_out": args.n_out,
           "initial_state": p0.state().tolist()}
    try:   # a chart exit of either flow ends the command: the spray's or the Finsler form's
        traj = integrate_spray(conn, p0, args.T, args.n_out)
        out_path = args.out
        _write_text(out_path, traj.to_text())
        doc["trajectory_file"] = out_path
        doc["stats"] = {"steps": traj.steps, "rejected_steps": traj.rejected_steps,
                        "max_error_estimate": traj.max_error_estimate}
        if not args.quiet:
            print("wrote %s (%d states, %d steps, %d rejected)"
                  % (out_path, len(traj.s), traj.steps, traj.rejected_steps))
        if args.both:
            rep = classify(conn, cfg.grid(), seed=cfg.seed, tols=_tol_from_overrides(overrides))
            forms = _build_forms(cfg, conn, rep)
            fins = forms.get("finsler")
            if fins is None:
                print("error: no Finsler form available for --both", file=sys.stderr)
                doc["exit_status"] = EXIT_FAIL
                _emit_json(args.json, doc)
                return EXIT_FAIL
            traj_f = integrate_finsler(fins, p0, args.T, args.n_out)
            out2 = out_path + ".finsler"
            _write_text(out2, traj_f.to_text())
            disc = discrepancy(traj, traj_f)
            doc["finsler_trajectory_file"] = out2
            doc["discrepancy"] = disc
            if not args.quiet:
                print("wrote %s; sup-norm discrepancy %.3g" % (out2, disc))
            if disc > overrides.get("geodesic", 1e-6):
                doc["exit_status"] = EXIT_FAIL
                _emit_json(args.json, doc)
                return EXIT_FAIL
    except ChartExit as exc:
        state = [float(x) for x in exc.state]
        # strict JSON has no inf or NaN: a non-finite component is written as null
        doc["chart_exit"] = {"s": exc.s, "reason": exc.reason,
                             "last_state": [x if math.isfinite(x) else None for x in state]}
        doc["exit_status"] = EXIT_FAIL
        _emit_json(args.json, doc)
        if not args.quiet:
            print("chart exit at s = %g (%s) at state %s"
                  % (exc.s, exc.reason, ["%.6g" % x for x in state]))
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


@functools.cache
def _parser() -> _Parser:
    """The parser, built once: each is a cycle that only a gc pass frees."""
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
    gp.add_argument("--out", default="trajectory.txt", help="trajectory file path")
    gp.add_argument("--both", action="store_true",
                    help="also integrate the built Finsler form and compare")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    overrides = {}
    for item in args.tol_override:
        if "=" not in item:
            return _usage_error("--tol-override needs NAME=VALUE")
        name, value = item.split("=", 1)
        name = name.strip()
        if name not in TOLERANCE_NAMES:
            return _usage_error("unknown tolerance %r (valid: %s)"
                                % (name, ", ".join(TOLERANCE_NAMES)))
        try:
            overrides[name] = float(value)
        except ValueError:
            return _usage_error("bad tolerance value %r" % value)
        if not (math.isfinite(overrides[name]) and overrides[name] > 0.0):
            return _usage_error("tolerance %s must be finite and > 0, not %s"
                                % (name, value.strip()))
    if args.seed is not None and args.seed < 0:
        return _usage_error("--seed must be a non-negative integer, not %d" % args.seed)

    try:
        size = _grid_size(args.grid) if args.grid else None
        p0 = _initial_point(args) if args.command == "geodesic" else None
    except _BadArgument as exc:
        return _usage_error(str(exc))

    try:
        # every argument is checked: now the outputs, before any work
        for path in (args.json, getattr(args, "out", None)):
            if path:
                _check_writable(path)
        cfg = load_config(args.config)
        if size is not None:
            cfg.t_n, cfg.r_n = size
        if args.seed is not None:
            cfg.seed = args.seed
        if p0 is not None:
            return cmd_geodesic(cfg, args, overrides, p0)
        handler = {"classify": cmd_classify, "metrize": cmd_metrize,
                   "verify": cmd_verify, "report": cmd_verify}[args.command]
        return handler(cfg, args, overrides)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_FAIL
    except ExpressionError as exc:
        print("expression error: %s" % exc, file=sys.stderr)
        return EXIT_FAIL
    except (GeometryError, ClassifierError, MetrizerError, VerificationError,
            StepFailure, OutputError) as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
