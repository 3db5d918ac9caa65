"""Every dataclass field in src/gaborfio is read by some src/ code.

A field is read when some module of the package loads an attribute of
its name (`obj.name`), matched by name only.  A field that nothing reads
is dead weight on every instance and goes, unless EXEMPT names it with
the reason it stays; each entry still exempts some field that no src/
code reads, so the map cannot go stale.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "gaborfio"

# "module.Class" (every field) or "module.Class.field" -> why it stays.
EXEMPT = {
    "diagnostics.DecayReport": "written whole to report.json",
    "diagnostics.NormEstimate.confidence_note":
        "bench/spans.py reads it for the power iteration count",
    "phases.TamePhase.name": "the phase's label",
    "phases.TamePhase.declared_delta":
        "oracles.tameness_audit checks the phase against it",
    "phases.TamePhase.declared_deriv_bound":
        "oracles.tameness_audit checks the phase against it",
}


def is_dataclass_decorator(node):
    target = node.func if isinstance(node, ast.Call) else node
    return isinstance(target, ast.Name) and target.id == "dataclass"


def fields_and_reads():
    """(["module.Class.field"] of every dataclass field, {attribute names
    loaded anywhere in the package})."""
    fields, reads = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.ClassDef) and any(
                    map(is_dataclass_decorator, node.decorator_list)):
                fields += [f"{path.stem}.{node.name}.{stmt.target.id}"
                           for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign)]
    return fields, reads


def exempt(name):
    return name in EXEMPT or name.rsplit(".", 1)[0] in EXEMPT


def test_every_dataclass_field_is_read():
    fields, reads = fields_and_reads()
    dead = [f for f in fields
            if f.rsplit(".", 1)[1] not in reads and not exempt(f)]
    assert dead == []


def test_exempt_fields_are_still_unread():
    fields, reads = fields_and_reads()
    for key in EXEMPT:
        mine = [f for f in fields if f == key or f.startswith(key + ".")]
        assert mine, key
        assert any(f.rsplit(".", 1)[1] not in reads for f in mine), key
