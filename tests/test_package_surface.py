"""Each job of the package has one home and one way in.

A helper another module needs is public in the module that owns it, so no
module imports a private name from a sibling. Every ``src/chartflow/*.py``
is parsed with ``ast``: a relative ``from .<module> import _<name>`` fails,
as does a ``csv.reader`` call anywhere but ``chart_store._csv_rows`` (the
one reader that numbers rows by physical line), a ``hashlib.sha256`` call
outside ``chart_store`` (the one module that owns the canonical CSV and its
digest) and any ``splitlines`` call (it also breaks lines at form feeds and
other separators). The slab layout stays with the velocity series and the
design: no other module names ``slab_positions``, and no call passes a
``positions=`` keyword. A genre tag narrows artists one way, by slicing the
weekly matrices: no module of the repository names the corpus rebuild
``filter_by_tag`` or an ``ArtistIndex`` record beside the corpus's own
sorted ``artists``. ``chartflow`` exports the pipeline's stages and
records, and no step inside a stage.
"""

import ast
from pathlib import Path

import chartflow

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "chartflow"


def private_sibling_imports(source: str) -> list[str]:
    """``module._name`` for each private name imported from a sibling."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found += [
                f"{node.module}.{alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    return found


def test_no_private_sibling_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = {
        path.name: names
        for path in modules
        if (names := private_sibling_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def attribute_calls(source: str) -> list[tuple[str, str]]:
    """``(function, call)`` per call of an attribute, such as
    ``("_csv_rows", "csv.reader")``: the innermost enclosing function (or
    ``<module>``) and the called expression's text."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            found.append((scope, ast.unparse(node.func)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return found


def package_calls() -> list[tuple[str, str, str]]:
    """``(module, function, call)`` for every attribute call of the package."""
    return [
        (path.stem, scope, call)
        for path in sorted(PACKAGE.glob("*.py"))
        for scope, call in attribute_calls(path.read_text(encoding="utf-8"))
    ]


def test_one_csv_reader():
    sites = {(m, f) for m, f, call in package_calls() if call == "csv.reader"}
    assert sites == {("chart_store", "_csv_rows")}


def test_one_digest_module():
    modules = {m for m, _, call in package_calls() if call == "hashlib.sha256"}
    assert modules == {"chart_store"}


def test_no_splitlines():
    found = [site for site in package_calls()
             if site[2].endswith(".splitlines")]
    assert found == []


def identifiers(source: str) -> set[str]:
    """Every name a module binds, reads or imports, and every attribute it
    reads."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
    return found


def test_slab_positions_stay_in_design():
    sources = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
    }
    naming = {
        module for module, source in sources.items()
        if "slab_positions" in identifiers(source)
    }
    assert naming == {"preprocess", "design"}
    passing = [
        module
        for module, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and any(keyword.arg == "positions" for keyword in node.keywords)
    ]
    assert passing == []


def test_one_way_to_narrow_artists():
    modules = [
        path
        for folder in ("src", "tests", "demos", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    assert PACKAGE / "preprocess.py" in modules
    naming = [
        (str(path.relative_to(ROOT)), name)
        for path in modules
        for name in ("ArtistIndex", "filter_by_tag")
        if name in identifiers(path.read_text(encoding="utf-8"))
    ]
    assert naming == []


def test_public_names():
    assert sorted(chartflow.__all__) == [
        "ChartFlowError", "ChartSeries", "CityResult", "Coefficients",
        "ColMeta", "Influence", "LabeledDesign", "LagConfig", "PlantSpec",
        "RegionReport", "VelocitySeries", "baseline_rmse", "build_design",
        "build_report", "build_velocities", "default_boundary",
        "evaluate_city", "evaluate_region", "fingerprint",
        "fit_nnls", "fit_ols", "generate_planted", "load_tags",
        "parse_chart_csv", "percent_of_baseline", "predict",
        "read_labels_csv", "report_csv_text", "report_json_text",
        "report_table_text", "rmse", "temporal_split", "write_chart_csv",
    ]
    assert all(hasattr(chartflow, name) for name in chartflow.__all__)
