"""The package holds what the commands and the benchmark's tracer run.

Every function, class, method and property defined in ``src/berwald`` must
be reachable by name from the roots: `cli.main`, the names the benchmark's
tracer (perfbench/tracing.py) rebinds, the names perfbench/jobs.py imports,
the dunders that Python calls, and `cli._Parser.error`, which argparse calls.
Reachability goes by name alone, so a name defined twice is reached by any
use of either, which only makes the check more lenient.  Reference
implementations that only tests call live in tests/oracles.py.
"""

import ast
import os
import sys

import berwald

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "berwald")
PERFBENCH = os.path.join(ROOT, "perfbench")

sys.path.insert(0, PERFBENCH)
import tracing  # noqa: E402

# the reference oracles, moved to tests/oracles.py
MOVED = ("riemann_falsification", "geodesic_agreement", "signature_observation", "Degenerate",
         "sample_jets", "path_integral", "class3_delta", "class5_det_formula",
         "ricci_asymmetry", "bracket_matrix")


def _references(nodes) -> set:
    """The names and attribute names that ``nodes`` use, imports aside."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _is_def(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.ClassDef))


def _package():
    """(definitions, module-level references): each definition as (qualified
    name, name, the names it uses); a class's own uses are its bases,
    decorators and the statements of its body that are not definitions."""
    defs, top = [], set()
    for fname in sorted(os.listdir(PACKAGE)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), fname)
        module = fname[:-3]
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if not _is_def(node):
                top |= _references([node])
                continue
            if isinstance(node, ast.ClassDef):
                body = [n for n in node.body if not _is_def(n)]
                defs.append(("%s.%s" % (module, node.name), node.name,
                             _references(node.bases + node.decorator_list + body)))
                defs += [("%s.%s.%s" % (module, node.name, m.name), m.name, _references([m]))
                         for m in node.body if _is_def(m)]
            else:
                defs.append(("%s.%s" % (module, node.name), node.name, _references([node])))
    return defs, top


def _benchmark_roots() -> set:
    """The names the tracer rebinds and the names jobs.py imports from berwald."""
    roots = {attr for _mod, attr in tracing.FUNCTIONS.values()}
    roots |= set(tracing.RANK_FUNCTIONS) | set(tracing.CHECKS)
    with open(os.path.join(PERFBENCH, "jobs.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("berwald"):
            roots |= {alias.name for alias in node.names}
    return roots


def unreachable() -> list:
    defs, reached = _package()
    reached |= {"main", "error"} | _benchmark_roots()
    reached |= {name for _q, name, _uses in defs if name.startswith("__") and name.endswith("__")}
    done, grew = set(), True
    while grew:
        grew = False
        for i, (_q, name, uses) in enumerate(defs):
            if i not in done and name in reached:
                done.add(i)
                reached |= uses
                grew = True
    return [q for q, name, _uses in defs if name not in reached]


def test_every_definition_is_reachable_from_the_commands():
    assert unreachable() == []


def test_no_oracle_is_exported():
    assert [name for name in MOVED if name in berwald.__all__] == []
