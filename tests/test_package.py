"""The public namespace: what `ehd2d.__all__` promises is there, and what
each module imports it uses."""

import ast
import importlib.util
import pathlib

import ehd2d

SRC = pathlib.Path(ehd2d.__file__).parent
SPANS = pathlib.Path(__file__).parents[1] / "benchmark" / "spans.py"

# (module, name) of functions folded into another owner: the diagnostics
# into energy_report, whose fields carry their values, and the single-face
# Scharfetter-Gummel flux into the sweep bands of transport._sweep_bands.
# Then the functions only tests called: the single Bernoulli weight
# (bernoulli_pair(x)[0]), J (the evaluations solve_pb makes), the
# stationary pressure identity and the two inner products, which the tests
# that use them now hold.
REMOVED = [("diagnostics", name) for name in (
    "relative_entropy", "equilibrium_energy", "wwrel_check",
    "linearized_energy", "error_norms", "csiszar_check")]
REMOVED += [("transport", "sg_face_flux"), ("transport", "bernoulli"),
            ("stationary", "functional_J"), ("stationary", "stationary_pressure_check"),
            ("grid", "face_inner"), ("grid", "cell_inner")]


def test_every_exported_name_resolves():
    missing = [name for name in ehd2d.__all__ if not hasattr(ehd2d, name)]
    assert missing == []
    assert len(set(ehd2d.__all__)) == len(ehd2d.__all__)


def test_removed_diagnostics_are_not_exported():
    for module, name in REMOVED:
        assert name not in ehd2d.__all__
        assert not hasattr(ehd2d, name)
        assert not hasattr(getattr(ehd2d, module), name)
    assert not hasattr(ehd2d.ScalarField, "from_function")


def _imports(tree):
    """(bound name, imported module) of every import statement in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = "." * node.level + (node.module or "")
            yield from ((alias.asname or alias.name, source) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.asname or alias.name.split(".")[0], alias.name)
                        for alias in node.names)


def test_stationary_does_not_import_fluid():
    tree = ast.parse((SRC / "stationary.py").read_text())
    sources = {source for _, source in _imports(tree)}
    assert not sources & {".fluid", "ehd2d.fluid", "ehd2d"}, sources


def test_every_imported_name_is_used():
    """No module imports a name it does not use, except the attributes the
    benchmark's span recorder wraps (benchmark/spans.py, ENTRY_POINTS): the
    splu names of poisson, transport and fluid, kept so that its LU counts
    read 0 there rather than missing."""
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    wrapped = {(module, attr) for module, attr, _ in spans.ENTRY_POINTS}
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.stem, name) for name, _ in _imports(tree)
                   if name not in used and (path.stem, name) not in wrapped]
    assert unused == []
