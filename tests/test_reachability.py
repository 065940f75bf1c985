"""Every definition in ``src/repro`` is reached by a run, or kept on purpose.

The scan parses ``src/repro`` with :mod:`ast`.  A *unit* is a top-level
function or class, or a method.  The roots are the names used anywhere
in ``bench/``, ``benchmarks/`` and ``examples/``, and in the module-level
statements of ``src/repro`` other than imports and ``__all__`` (this
includes ``python -m repro``'s call of the CLI).  A *use* is an
``ast.Name``, an ``ast.Attribute.attr`` or a string constant that is an
identifier (``getattr`` targets, ``setattr`` patches, dispatch tables).
A unit is reached when a root or a reached unit uses its name, and a
reached class brings its dunder methods.  The match is by name alone, so
the scan over-approximates: a unit it calls unreached has no caller
outside ``tests/``.

A unit that only tests reach is either deleted or listed in ``KEEP``
with its reason.  A ``KEEP`` entry that a run reaches, or that no longer
exists, fails too, so the list cannot rot.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"
ROOT_DIRS = ("bench", "benchmarks", "examples")

#: Units that no run reaches, kept on purpose.  A framework hook that a
#: library calls by a name nothing in the repo spells belongs here too.
KEEP = {
    "repro.core.sllt.is_sllt": (
        "the paper's SLLT definition (Definition 2.2); tests judge CBS "
        "output by it"),
    "repro.core.sllt.SLLTReport": "what is_sllt returns",
    "repro.netlist.topology.topology_leaves": (
        "definitional oracle for the merge topologies"),
    "repro.netlist.topology.topology_depth": (
        "definitional oracle for the merge topologies"),
    "repro.netlist.topology.topology_size": (
        "definitional oracle for the merge topologies"),
    "repro.timing.buffer_model.critical_wirelength": (
        "the paper's Section 3.4 L(i,j), tested against its break-even "
        "identity"),
    "repro.timing.buffer_model.refined_critical_wirelength": (
        "the paper's Section 3.4 L-hat(i,j), tested against its "
        "break-even identity"),
    "repro.partition.clustering.clustering_cost": (
        "the paper's clustering Cost^k, kept until the skew-control "
        "work decides whether the flow uses it"),
    "repro.partition.clustering.Cluster.max_delay_estimate": (
        "the delay term of the paper's Cost^k"),
    "repro.geometry.point.Point.is_close": (
        "the verbatim test oracles for skew repair and the hull call it"),
    "repro.geometry.segment.Rect.distance_to_point": (
        "the reference that merge regions and nearest_point are checked "
        "against"),
    "repro.io.netfile.write_net": (
        "writes the net format that `repro route` reads"),
    "repro.flowguard.faults.FaultInjector.wrap": "the fault-injection hook",
    "repro.obs.metrics.MetricsRegistry.counter": (
        "the registry's read API beside the production gauge"),
    "repro.obs.metrics.MetricsRegistry.histogram": (
        "the registry's read API beside the production gauge"),
}


@dataclass
class Unit:
    qualname: str
    name: str
    uses: set[str] = field(default_factory=set)
    dunders: list["Unit"] = field(default_factory=list)


def _names(nodes) -> set[str]:
    found = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and node.value.isidentifier()):
                found.add(node.value)
    return found


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _is_all(stmt: ast.stmt) -> bool:
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, (ast.AnnAssign,
                                                       ast.AugAssign))
               else [])
    return any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in targets)


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def scan() -> tuple[dict[str, Unit], set[str]]:
    """All units of ``src/repro`` by qualname, and the root names."""
    units: dict[str, Unit] = {}
    roots: set[str] = set()

    def add(qualname: str, name: str, nodes) -> Unit:
        unit = units.setdefault(qualname, Unit(qualname, name))
        unit.uses |= _names(nodes)
        return unit

    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        module = ".".join(p for p in parts if p != "__init__")
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, _DEFS):
                add(f"{module}.{stmt.name}", stmt.name, [stmt])
            elif isinstance(stmt, ast.ClassDef):
                body = [s for s in stmt.body if not isinstance(s, _DEFS)]
                cls = add(f"{module}.{stmt.name}", stmt.name,
                          [*stmt.decorator_list, *stmt.bases,
                           *stmt.keywords, *body])
                for meth in stmt.body:
                    if isinstance(meth, _DEFS):
                        unit = add(f"{cls.qualname}.{meth.name}",
                                   meth.name, [meth])
                        if _is_dunder(meth.name) and unit not in cls.dunders:
                            cls.dunders.append(unit)
            elif not (isinstance(stmt, (ast.Import, ast.ImportFrom))
                      or _is_all(stmt)):
                roots |= _names([stmt])

    for directory in ROOT_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            roots |= _names([ast.parse(path.read_text())])
    return units, roots


def reached(units: dict[str, Unit], roots: set[str]) -> set[str]:
    by_name: dict[str, list[Unit]] = {}
    for unit in units.values():
        by_name.setdefault(unit.name, []).append(unit)
    done: set[str] = set()
    todo = list(roots)
    seen_names: set[str] = set()

    def reach(unit: Unit) -> None:
        if unit.qualname in done:
            return
        done.add(unit.qualname)
        todo.extend(unit.uses)
        for dunder in unit.dunders:
            reach(dunder)

    while todo:
        name = todo.pop()
        if name in seen_names:
            continue
        seen_names.add(name)
        for unit in by_name.get(name, ()):
            reach(unit)
    return done


@pytest.fixture(scope="module")
def scanned() -> tuple[dict[str, Unit], set[str]]:
    """Every unit by qualname, and the qualnames a run reaches."""
    units, roots = scan()
    return units, reached(units, roots)


def test_every_unit_is_reached_or_kept(scanned):
    units, live = scanned
    unreached = sorted(q for q in units if q not in live and q not in KEEP)
    assert not unreached, (
        "reached only from tests; delete them or add each to KEEP with "
        "its reason:\n  " + "\n  ".join(unreached))


def test_keep_list_does_not_rot(scanned):
    units, live = scanned
    missing = sorted(q for q in KEEP if q not in units)
    assert not missing, f"KEEP names units that no longer exist: {missing}"
    wired = sorted(q for q in KEEP if q in live)
    assert not wired, f"KEEP names units a run now reaches: {wired}"
