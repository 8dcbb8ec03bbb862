"""Static checks of the source. No module defines the same top-level
function or class twice: the second definition rebinds the name at import
and leaves the first dead, which no runtime test notices. The graticule,
distortion and curve code reads no family's formula or tear: each lives in
projections, and those modules import only its interface. They call no
``forward`` either: the kernels' holes tell them which samples are rejected.
The per-sample and per-step functions call no two-argument ``min`` or
``max``, which Python 3.11 runs through its slow varargs path. The SVG arc
test takes its flags from the circle fit, without a pass over the samples,
and the atlas keeps no state that outlives one render. A memo in the
library keeps only the last call: every ``lru_cache`` has ``maxsize=1``,
and conic_design, which knows the order of its own calls, is the one module
that keeps one.
The sign of a printed zero is decided by ``geo._fmt`` alone: no module adds
a literal zero to turn -0.0 into 0.0 or compares a text with "-0.000000",
except render_svg, which makes the SVG's margin +0.0 once. The package
imports the standard library alone, inside functions too: the third-party
modules it imports are its declared runtime dependencies, of which there are
none."""

import ast
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_no_top_level_name_defined_twice():
    twice = {}
    for folder in ("src/mapproj", "tests", "scripts"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            names = Counter(
                node.name for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            )
            if repeated := sorted(name for name, n in names.items() if n > 1):
                twice[str(path.relative_to(ROOT))] = repeated
    assert twice == {}


# the names under which a family keeps its formula, its tear and its rim,
# the signed cone and its sign included, and the separable families' grid
# hooks; atlas, distortion and geodesics reach every family through _xy and
# the grid methods _rows, _columns and _curve, and find the tear through
# _offsets, so that it is decided in projections alone
KERNEL_INTERNALS = {"_cone", "_sign", "_x_scale", "_radius", "_level", "_profile", "_parallels",
                    "_meridian", "_limit", "_rim", "_radial_law", "_frame", "lon0",
                    "center", "cut_longitude"}
# a geodesics arc fit has a center of its own, which a name bound to a fit reads
ARC_FITS = {"_three_point_fit", "fit_circular_arc"}


def _kernel_reads(source: str) -> list[str]:
    """Each read of a kernel internal, except on a name bound to an arc fit,
    and each comparison of a ``type(...)._xy``."""
    tree = ast.parse(source)
    fits = {target.id for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name) and node.value.func.id in ARC_FITS
            for target in node.targets if isinstance(target, ast.Name)}
    reads = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in KERNEL_INTERNALS
                and not (isinstance(node.value, ast.Name) and node.value.id in fits)):
            reads.append(f"line {node.lineno}: .{node.attr}")
        if isinstance(node, ast.Compare):
            for side in (node.left, *node.comparators):
                if (isinstance(side, ast.Attribute) and side.attr == "_xy"
                        and isinstance(side.value, ast.Call)
                        and isinstance(side.value.func, ast.Name) and side.value.func.id == "type"):
                    reads.append(f"line {node.lineno}: type(...)._xy")
    return reads


def test_consumers_do_not_read_kernel_internals():
    assert _kernel_reads("if type(p)._xy is K._xy:\n    n, r = p._cone\n    q = p.lon0\n") == [
        "line 1: type(...)._xy", "line 2: ._cone", "line 3: .lon0"]
    # the form the tear once had in geodesics and distortion
    assert _kernel_reads("if proj.cut_longitude is None:\n    u = wrap(lon - cut)\n") == [
        "line 1: .cut_longitude"]
    assert _kernel_reads("fit = _three_point_fit(xs, ys)\nc = fit.center\nd = p.center\n") == [
        "line 3: .center"]
    reads = {
        name: _kernel_reads((ROOT / "src/mapproj" / name).read_text(encoding="utf-8"))
        for name in ("atlas.py", "distortion.py", "geodesics.py")
    }
    assert reads == {"atlas.py": [], "distortion.py": [], "geodesics.py": []}


def _projections_imports(source: str) -> list[str]:
    """The names imported from ``.projections``, at any depth."""
    return [alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "projections" and node.level == 1
            for alias in node.names]


def test_consumers_import_only_the_interface():
    assert _projections_imports(
        "from .projections import Projection, _Azimuthal\nif X:\n    from .projections import F\n"
    ) == ["Projection", "_Azimuthal", "F"]
    imports = {
        name: _projections_imports((ROOT / "src/mapproj" / name).read_text(encoding="utf-8"))
        for name in ("atlas.py", "distortion.py", "geodesics.py")
    }
    assert {name: set(names) - {"Projection", "PlanePoint"} for name, names in imports.items()} == {
        "atlas.py": set(), "distortion.py": set(), "geodesics.py": set()}


def _forward_calls(source: str) -> list[int]:
    """The lines that call a ``.forward`` attribute."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "forward"]


def test_consumers_project_through_the_kernels():
    # a rejection reaches them as a kernel's hole, never as a caught
    # DomainError per point
    assert _forward_calls("p = proj.forward(c)\nf = proj.forward\nq = forward(c)\n") == [1]
    calls = {
        name: _forward_calls((ROOT / "src/mapproj" / name).read_text(encoding="utf-8"))
        for name in ("atlas.py", "distortion.py", "geodesics.py")
    }
    assert calls == {"atlas.py": [], "distortion.py": [], "geodesics.py": []}


# the functions that run per sample, per inverse or per solver step, as
# "name" or "Class.name"
HOT_FUNCTIONS = {
    "conic_design.py": {"_newton"},
    "distortion.py": {"_fields", "euler_property_report"},
    "geo.py": {"_clamp", "_canonical", "from_unit_vector", "spherical_angle_from_sides"},
    "projections.py": {
        "Equirectangular._latitude", "LambertCylindricalEqualArea._latitude",
        "EquidistantConic._latitude", "_Azimuthal.inverse", "Werner.inverse",
    },
}


def _pairwise_min_max(source: str, names: set[str]) -> dict[str, list[int]]:
    """For each named function found, the lines where it calls ``min`` or
    ``max`` on two or more arguments (a reduction over one iterable loops
    in C and is not counted)."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name + ".")
            elif isinstance(child, ast.FunctionDef) and prefix + child.name in names:
                found[prefix + child.name] = [
                    call.lineno for call in ast.walk(child)
                    if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id in ("min", "max")
                    and (len(call.args) > 1 or any(isinstance(a, ast.Starred) for a in call.args))
                ]

    visit(ast.parse(source), "")
    return found


def test_hot_functions_compare_instead_of_calling_min_max():
    # the positive control is the form these functions had
    assert _pairwise_min_max(
        "def _newton(f, lo, hi):\n"
        "    if not min(lo, hi) < nxt < max(lo, hi):\n"
        "        pass\n"
        "class Werner:\n"
        "    def inverse(self, p):\n"
        "        lat = HALF_PI - min(r, math.pi)\n"
        "        return max(dev), max(*dev), min(dev, key=abs)\n"
        "def _fields(q, r):\n"
        "    return min(q, r) / max(q, r)\n",
        {"_newton", "Werner.inverse", "inverse"},
    ) == {"_newton": [2, 2], "Werner.inverse": [6, 7]}
    calls = {
        name: _pairwise_min_max((ROOT / "src/mapproj" / name).read_text(encoding="utf-8"), names)
        for name, names in HOT_FUNCTIONS.items()
    }
    assert calls == {name: dict.fromkeys(names, []) for name, names in HOT_FUNCTIONS.items()}


def _arc_sample_passes(source: str) -> list[str]:
    """In ``_path_arc``: each call of an ``atan2``, and each loop or
    comprehension below the line that calls ``_three_point_fit``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name == "_path_arc":
            break
    else:
        return ["no _path_arc"]
    fit_line = min(call.lineno for call in ast.walk(node) if isinstance(call, ast.Call)
                   and isinstance(call.func, ast.Name) and call.func.id == "_three_point_fit")
    passes = []
    for child in ast.walk(node):
        if isinstance(child, ast.Call) and "atan2" in (
                getattr(child.func, "attr", None), getattr(child.func, "id", None)):
            passes.append(f"line {child.lineno}: atan2")
        elif isinstance(child, (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
                                ast.GeneratorExp)) and child.lineno > fit_line:
            passes.append(f"line {child.lineno}: {type(child).__name__}")
    return sorted(passes)


def test_arc_flags_come_from_the_fit():
    # the positive control is the turn loop the flags once came from
    assert _arc_sample_passes(
        "def _path_arc(xs, ys, px, py, tr):\n"
        "    if ys.count(ys[0]) == len(ys) or any(x is None for x in xs):\n"
        "        return None\n"
        "    fit = _three_point_fit(xs, ys)\n"
        "    angles = [math.atan2(y - cy, x - cx) for x, y in zip(px, py)]\n"
        "    for a0, a1 in zip(angles, angles[1:]):\n"
        "        swept += a1 - a0\n"
    ) == ["line 5: ListComp", "line 5: atan2", "line 6: For"]
    assert _arc_sample_passes((ROOT / "src/mapproj/atlas.py").read_text(encoding="utf-8")) == []


def _import_time_state(source: str) -> list[str]:
    """Each ``global`` statement, and each dict, list or set display or
    comprehension evaluated at import: at module or class level, or in a
    function's defaults or decorators, but not in a function body."""
    tree = ast.parse(source)
    found = [(node.lineno, "global") for node in ast.walk(tree) if isinstance(node, ast.Global)]
    todo = [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
            found.append((node.lineno, type(node).__name__))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            todo += [*node.decorator_list, node.args]
        elif isinstance(node, ast.Lambda):
            todo.append(node.args)
        else:
            todo.extend(ast.iter_child_nodes(node))
    return [f"line {line}: {kind}" for line, kind in sorted(found)]


def test_atlas_keeps_no_state_between_renders():
    # the positive control builds a cache at import in each place the check
    # looks; a function body's own dicts live for one call and are not counted
    assert _import_time_state(
        "_TEXTS = {}\n"
        "_ORDER, _SEEN = [k for k in range(3)], {0.0}\n"
        "class Layer:\n"
        "    memo = {0.0: '0.000000'}\n"
        "def layer(segments, texts={}, key=lambda v, seen=[]: v):\n"
        "    global _TEXTS\n"
        "    local = {v: str(v) for v in segments}\n"
        "    return [local[v] for v in segments]\n"
    ) == ["line 1: Dict", "line 2: ListComp", "line 2: Set", "line 4: Dict", "line 5: Dict",
          "line 5: List", "line 6: global"]
    assert _import_time_state((ROOT / "src/mapproj/atlas.py").read_text(encoding="utf-8")) == []


_CACHES = {"lru_cache", "cache"}


def _unbounded_caches(source: str) -> list[str]:
    """Each ``lru_cache`` or ``cache`` that may keep more than the last
    call: a bare decorator, or a call whose only argument is not
    ``maxsize=1``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _called_name(node.func) in _CACHES:
            if [ast.unparse(arg) for arg in (*node.args, *node.keywords)] != ["maxsize=1"]:
                found.append(node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [dec for dec in node.decorator_list if _called_name(dec) in _CACHES]
    return [f"line {node.lineno}: {ast.unparse(node)}"
            for node in sorted(found, key=lambda node: node.lineno)]


def _called_name(node: ast.expr) -> str | None:
    return getattr(node, "id", None) or getattr(node, "attr", None)


def test_library_memos_keep_only_the_last_call():
    # the positive control holds each form that keeps more than one result
    assert _unbounded_caches(
        "@lru_cache\n"
        "def a(x): pass\n"
        "@functools.cache\n"
        "def b(x): pass\n"
        "@lru_cache(maxsize=128)\n"
        "def c(x): pass\n"
        "@functools.lru_cache(maxsize=1)\n"
        "def d(x): pass\n"
        "@cached_property\n"
        "def e(self): pass\n"
        "f = lru_cache(maxsize=None)(a)\n"
    ) == ["line 1: lru_cache", "line 3: functools.cache", "line 5: lru_cache(maxsize=128)",
          "line 11: lru_cache(maxsize=None)"]
    sources = sorted((ROOT / "src/mapproj").glob("*.py"))
    assert {path.name: _unbounded_caches(path.read_text(encoding="utf-8")) for path in sources} == {
        path.name: [] for path in sources}


def _memos(source: str) -> list[str]:
    """Each ``lru_cache`` or ``cache`` the source applies, bare or called."""
    found = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, (ast.Name, ast.Attribute)) and _called_name(node) in _CACHES]
    return [f"line {node.lineno}: {ast.unparse(node)}"
            for node in sorted(found, key=lambda node: node.lineno)]


def test_the_one_memo_is_in_conic_design():
    # the positive control: a memo of the last call is reported too
    assert _memos(
        "from functools import lru_cache\n"
        "@lru_cache(maxsize=1)\n"
        "def a(x): pass\n"
        "@functools.cache\n"
        "def b(x): pass\n"
        "@cached_property\n"
        "def c(self): pass\n"
    ) == ["line 2: lru_cache", "line 4: functools.cache"]
    memos = {path.name: _memos(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src/mapproj").glob("*.py"))}
    assert {name for name, found in memos.items() if found} == {"conic_design.py"}
    assert len(memos["conic_design.py"]) == 1


def _zero_patches(source: str) -> list[str]:
    """Each sum with a literal zero (``v + 0.0``, ``0 + v``, ``v += 0.0``),
    which turns a -0.0 into 0.0, and each string literal of a negative
    zero's text, by the function it is in."""
    found = []

    def is_zero(node):
        return (isinstance(node, ast.Constant) and type(node.value) in (int, float)
                and node.value == 0)

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
                and (is_zero(node.left) or is_zero(node.right))):
            found.append(f"{where}: + 0")
        elif (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add)
              and is_zero(node.value)):
            found.append(f"{where}: += 0")
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"-0(\.0*)?", node.value)):
            found.append(f"{where}: {node.value!r}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_only_geo_fmt_decides_a_zeros_sign():
    # the positive control holds each form a patch took before _fmt took
    # every spec, and forms that leave -0.0 as it is
    assert _zero_patches(
        "def f(v):\n"
        "    v += 0.0\n"
        "    return 0 + v, v + 0.0, v - 0.0, v * 0.0\n"
        "def g(s):\n"
        "    return '0.000000' if s == '-0.000000' else s\n"
        "w = x + 0\n"
    ) == ["f: += 0", "f: + 0", "f: + 0", "g: '-0.000000'", "<module>: + 0"]
    patches = {path.name: _zero_patches(path.read_text(encoding="utf-8"))
               for path in sorted((ROOT / "src/mapproj").glob("*.py"))}
    assert {name: found for name, found in patches.items() if found} == {
        "atlas.py": ["render_svg: + 0"]}


def _third_party_imports(source: str) -> list[tuple[int, str]]:
    """Each import, at any depth, of a module that is neither the package
    itself (relative, or ``mapproj``) nor in the standard library, as its
    line and top-level name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.partition(".")[0]
            if top != "mapproj" and top not in sys.stdlib_module_names:
                found.append((node.lineno, top))
    return found


def test_the_package_imports_only_its_declared_dependencies():
    # the positive control holds the forms numpy once took in the package:
    # a function-local import and one kept for annotations
    assert _third_party_imports(
        "from __future__ import annotations\n"
        "import math, numpy.linalg\n"
        "from . import geo\n"
        "from mapproj.geo import GeoCoord\n"
        "def fit(xs):\n"
        "    import numpy as np\n"
        "    from scipy import optimize\n"
        "if TYPE_CHECKING:\n"
        "    import numpy\n"
    ) == [(2, "numpy"), (6, "numpy"), (7, "scipy"), (9, "numpy")]
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group() for req in project["dependencies"]}
    imports = {str(path.relative_to(ROOT)): _third_party_imports(path.read_text(encoding="utf-8"))
               for path in sorted((ROOT / "src/mapproj").rglob("*.py"))}
    imported = {name for found in imports.values() for _, name in found}
    assert imported == declared, {path: found for path, found in imports.items() if found}
    assert declared == set()
