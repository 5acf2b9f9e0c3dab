"""Audit of qfclab's public names: every top-level public function or class
in src/qfclab has a caller in the package or in the benchmark harness, or
is listed below with the reason it stays.

A reference is a name or attribute read in src/qfclab (re-exports in
__init__.py do not count, nor a definition's references to itself) or in
perfbench outside its tests. A function that perfbench wraps is named in
`bench_trace.PLAN` as a string; those names count as referenced too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qfclab"
BENCH = ROOT / "perfbench"

# public names kept without a caller, and why each stays
KEPT = {
    "cascade_rate": "the UV pair-cascade law that the generator's cascade is "
                    "to follow, so the noise gates and the tag streams share it",
    "inband_floor_rate": "the in-band luminescence floor beside cascade_rate, "
                         "for the same pinning of the generator",
    "expected_rates": "the per-branch rates a closed-form coincidence histogram "
                      "of the generator is to be built from",
    "rate_metrics": "pins the paper's efficiency extraction, "
                    "eta_ext = (S - N) / (flux * eta_loss)",
    "read_table": "reads back the scenario CSVs",
}


def _public_definitions():
    names = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                names[node.name] = path.name
    return names


def _names_read(tree):
    """Names and attributes read anywhere in tree, except those a top-level
    definition reads of itself."""
    read = set()
    for top in tree.body:
        own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
        read.discard(own)
    return read


def _plan_functions(tree):
    """The function names of the (module, function, counter) entries of PLAN."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["PLAN"]):
            return {entry.elts[1].value for entry in node.value.elts}
    raise AssertionError("bench_trace.PLAN not found")


def _referenced():
    read = set()
    for path in [*PACKAGE.glob("*.py"), *BENCH.glob("*.py")]:
        if path.name == "__init__.py" or path.name.startswith("test_"):
            continue
        tree = ast.parse(path.read_text())
        read |= _names_read(tree)
        if path == BENCH / "bench_trace.py":
            read |= _plan_functions(tree)
    return read


def test_every_public_name_has_a_caller_or_a_reason():
    defined = _public_definitions()
    uncalled = defined.keys() - _referenced()
    assert sorted(f"{defined[n]}:{n}" for n in uncalled - KEPT.keys()) == [], \
        "public names without a caller: give each one or delete it"
    assert sorted(KEPT.keys() - uncalled) == [], \
        "kept names that gained a caller or are gone: drop them from KEPT"

