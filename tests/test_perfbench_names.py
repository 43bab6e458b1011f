"""The benchmark imports landaulab names (`perfbench/*.py`) and its traced run
wraps landaulab functions and methods by name (`perfbench/spans.py`); a
rename or deletion in the package must show up here, in the fast suite, and
not only in the benchmark's own smoke test."""

import ast
import importlib
import importlib.util
from pathlib import Path

import landaulab.potentials as potentials

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_spanned_functions_exist():
    spans = _spans()
    missing = [f"{mod}.{name}" for mod, names in spans.FUNCTIONS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"landaulab.{mod}"),
                                       name, None))]
    assert not missing


def test_spanned_potential_methods_exist():
    spans = _spans()
    missing = [m for m in spans.POTENTIAL_METHODS
               if not callable(getattr(potentials.Potential, m, None))]
    assert not missing


def _landaulab_references():
    """Dotted paths of every landaulab module or name that perfbench/*.py
    imports, or reads as an attribute of an imported landaulab name."""
    refs = set()
    for path in PERFBENCH.glob("*.py"):
        tree = ast.parse(path.read_text())
        aliases = {}   # local name -> dotted path of the landaulab object bound to it
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("landaulab"):
                for a in node.names:
                    aliases[a.asname or a.name] = f"{node.module}.{a.name}"
            elif isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.split(".")[0] == "landaulab":
                        aliases[a.asname or a.name] = a.name
        refs |= set(aliases.values())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                refs.add(f"{aliases[node.value.id]}.{node.attr}")
    return refs


def _exists(dotted):
    """Whether the dotted path names a module, or an attribute reached from one."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            return False
    return True


def test_perfbench_landaulab_names_exist():
    refs = _landaulab_references()
    assert {f"landaulab.{name}" for name in (
        "cli", "load_config", "make_potential", "Grid", "build_operator",
        "assemble_sparse", "l2_norm")} <= refs
    missing = sorted(r for r in refs if not _exists(r))
    assert not missing
