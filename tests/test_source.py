"""Package sources compile without warnings, import without sympy, hold
no recursive closures, keep the reference checkers independent, run the
terrace gate only where its fact is checked, build squares in one place,
keep each group's encoding in its own class, build certificates, finish
products and search R-terraces without element arithmetic, refuse every
desk cap with one exception, and use every public definition outside the
oracle; the package and test sources import nothing they do not use."""

import ast
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted((SRC / "seqlatin").glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_compiles_without_warnings(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(), str(path), "exec")


def test_package_imports_without_sympy():
    """sympy is a test-only reference: no package module may import it."""
    modules = ", ".join(f"seqlatin.{p.stem}" for p in SOURCES if p.stem != "__init__")
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import {modules}; "
        "assert 'sympy' not in sys.modules, 'sympy imported'"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def _recursive_closures(tree: ast.AST) -> list[str]:
    """Functions nested in a function that call themselves by name."""
    found = []
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for outer in ast.walk(tree):
        if not isinstance(outer, funcs):
            continue
        for inner in ast.walk(outer):
            if inner is outer or not isinstance(inner, funcs):
                continue
            if any(
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == inner.name
                for node in ast.walk(inner)
            ):
                found.append(f"{outer.name}.{inner.name}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_recursive_closures(path):
    """A search's depth must not be bounded by the caller's stack."""
    assert _recursive_closures(ast.parse(path.read_text())) == []


def test_recursive_closure_detector():
    src = "def outer():\n    def walk(i):\n        return walk(i - 1) if i else 0\n    return walk(3)\n"
    assert _recursive_closures(ast.parse(src)) == ["outer.walk"]


def _unused_imports(tree: ast.Module) -> list[str]:
    """line:name for each name an import binds that the module never reads;
    `import a.b` binds a."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{line}:{name}" for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    """A stale import outlives the code it served, as a removed encoder's would."""
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_detector():
    src = (
        "from __future__ import annotations\n"
        "import os.path\nimport sys as system\nimport json\n"
        "from dataclasses import dataclass, field\nfrom .groups import row as r\n\n"
        "@dataclass\nclass C:\n    def m(self) -> os.PathLike:\n"
        "        import math\n        return r(json.loads('1'))\n"
    )
    assert _unused_imports(ast.parse(src)) == ["11:math", "3:system", "5:field"]


def _names_used(func: ast.AST) -> set[str]:
    """Every bare name and attribute name a function's body mentions."""
    names = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _attributes_used(func: ast.AST) -> set[str]:
    """Every attribute name a function's body reads, as in group.quots."""
    return {node.attr for node in ast.walk(func) if isinstance(node, ast.Attribute)}


# the integer encoding each group class owns: its methods and tables
ENCODING = {
    "indices", "quot", "quots", "diffs", "row", "columns", "decode", "twist", "subgroups",
}


def _top_level_names(tree: ast.Module) -> set[str]:
    """Names a module defines itself: functions, classes and assignments."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("checker", ["naive_directed_terrace", "naive_r_terrace"])
def test_reference_checkers_stay_independent(checker):
    """The oracle's checkers vouch for the gate, so they share none of its
    code: nothing of latin.py, and no method of the groups' encoding."""
    banned = {"latin"} | _top_level_names(ast.parse((SRC / "seqlatin" / "latin.py").read_text()))
    tree = ast.parse((SRC / "seqlatin" / "oracle.py").read_text())
    func = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == checker)
    assert _names_used(func) & banned == set()
    assert _attributes_used(func) & ENCODING == set()
    assert "is_directed_terrace" in banned


def test_independence_detector():
    src = (
        "def check(group, arr):\n    quots = group.quots(group.indices(arr))\n"
        "    return latin.is_directed_terrace(group, quots)\n"
    )
    func = ast.parse(src).body[0]
    assert {"latin", "is_directed_terrace", "quots", "indices"} <= _names_used(func)
    assert _attributes_used(func) & ENCODING == {"quots", "indices"}


def _mentions(sources: dict[str, ast.Module], name: str) -> set[str]:
    """module.definition for each top-level statement, imports aside, that
    names `name`; a statement without a name reads as module.<module>."""
    return {
        f"{Path(path).stem}.{getattr(stmt, 'name', '<module>')}"
        for path, tree in sources.items()
        for stmt in tree.body
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)) and name in _names_used(stmt)
    }


def test_gate_runs_only_where_its_fact_is_checked():
    """The terrace gate is the one check of its fact: the pipelines gate each
    certificate once, a square is built behind it, and verify checks an
    outside certificate.  Any other caller re-checks what one of them knows."""
    sources = {p.name: ast.parse(p.read_text()) for p in SOURCES}
    assert _mentions(sources, "is_directed_terrace") == {
        "pipelines._certify",
        "latin.terrace_to_complete_square",
        "cli.cmd_verify",
    }


def test_gate_mention_detector():
    a = (
        "from .latin import is_directed_terrace\n\n"
        "def gate(g, t):\n    return is_directed_terrace(g, t)\n\n"
        "def recheck(g, t):\n    return latin.is_directed_terrace(g, t)[0]\n\n"
        "def quiet():\n    'is_directed_terrace, in words only'\n"
    )
    b = "class C:\n    def m(self):\n        return is_directed_terrace\n\nX = [is_directed_terrace]\n"
    sources = {"a.py": ast.parse(a), "b.py": ast.parse(b)}
    assert _mentions(sources, "is_directed_terrace") == {"a.gate", "a.recheck", "b.C", "b.<module>"}


def _callers(sources: dict[str, ast.Module], name: str) -> set[str]:
    """module.definition for each top-level statement that calls `name`, bare
    or as an attribute; naming it without a call, as in an annotation, does
    not count."""
    return {
        f"{Path(path).stem}.{getattr(stmt, 'name', '<module>')}"
        for path, tree in sources.items()
        for stmt in tree.body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }


def _definers(sources: dict[str, ast.Module], name: str) -> set[str]:
    """module.function or module.Class for each top-level function, and each
    class with a method or property, named `name`."""
    found = set()
    for path, tree in sources.items():
        for stmt in tree.body:
            body = stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]
            if any(isinstance(n, ast.FunctionDef) and n.name == name for n in body):
                found.add(f"{Path(path).stem}.{stmt.name}")
    return found


def test_each_group_class_owns_its_encoding():
    """One class per group kind: the group itself encodes its elements, with
    no encoder class or memo beside it."""
    sources = {p.name: ast.parse(p.read_text()) for p in SOURCES}
    assert _definers(sources, "quots") == {
        "groups.AbelianSpec", "groups.SdSpec", "groups.TableGroup",
    }


def test_definer_detector():
    a = (
        "class G:\n    def quots(self, idx):\n        return idx\n\n"
        "class GIndex:\n    @property\n    def quots(self):\n        return []\n\n"
        "class Other:\n    quots = None\n\n"
        "def quots(enc, idx):\n    def quots(i):\n        return i\n    return enc.quots(idx)\n"
    )
    assert _definers({"a.py": ast.parse(a)}, "quots") == {"a.G", "a.GIndex", "a.quots"}


def test_squares_are_built_only_by_sequencing_square():
    """One builder: every LatinSquare the package makes is sequencing_square's,
    so every square is the cached one of its design and carries its report."""
    sources = {p.name: ast.parse(p.read_text()) for p in SOURCES}
    assert _callers(sources, "LatinSquare") == {"latin.sequencing_square"}


def test_square_caller_detector():
    a = (
        "from .latin import LatinSquare\n\n"
        "def build(n, grid) -> LatinSquare:\n    return LatinSquare(n, grid)\n\n"
        "def rebuild(sq):\n    return latin.LatinSquare(sq.n, sq.grid)\n\n"
        "def typed(sq: LatinSquare) -> 'LatinSquare':\n    return [LatinSquare]\n"
    )
    b = "class C:\n    def m(self):\n        return LatinSquare(1, ((0,),))\n\nX = LatinSquare(0, ())\n"
    sources = {"a.py": ast.parse(a), "b.py": ast.parse(b)}
    assert _callers(sources, "LatinSquare") == {"a.build", "a.rebuild", "b.C", "b.<module>"}


# element arithmetic, and the strict map, RTerrace and transform_hash,
# which would carry lists that are already indices through element tuples
ELEMENT_CALLS = {
    "apply_power", "apply", "add", "sub", "neg", "scale", "decode",
    "indices", "transform_hash", "RTerrace",
}

# the certificate path, construction to JSON, which works on element indices
INDEX_PATH = (
    "harmonious.bghj_base",
    "harmonious.bghj_product",
    "harmonious.hash_for",
    "latin.walecki_terrace",
    "pipelines._try_cyclic_candidate",
    "template.theorem4_assign",
    "template.assemble",
    "pipelines._certify",
    "pipelines.SequencingCertificate.to_json",
)


# element arithmetic on tuples, which the R-terrace search does on indices;
# its returned RTerrace is where it decodes to elements
SEARCH_CALLS = {
    "add", "sub", "neg", "scale", "independent", "cyclic_subgroup", "element_order",
}


# the product finisher's element work, which it does on indices: tuple
# sums and orders, alpha and psi per element, the transformed hash, and
# a basis per candidate pair
FINISHER_CALLS = SEARCH_CALLS | {"apply", "apply_power", "transform_hash", "extend_to_basis"}


def _element_callers(sources: dict[str, ast.Module], targets, banned=ELEMENT_CALLS) -> set[str]:
    """Each target, module.function or module.Class.method, whose body calls
    a name in `banned`, bare or as an attribute."""
    found = set()
    for target in targets:
        module, *path = target.split(".")
        node = sources[module]
        for name in path:
            node = next(
                n for n in node.body
                if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name
            )
        called = {
            getattr(c.func, "id", None) or getattr(c.func, "attr", None)
            for c in ast.walk(node)
            if isinstance(c, ast.Call)
        }
        if called & banned:
            found.add(target)
    return found


def test_certificate_path_does_no_element_arithmetic():
    """The #-harmonious sequences, Walecki's terrace, the cyclic candidate,
    the Theorem-4 arrangement, the gate's caller and the JSON writer read
    and write indices: no tuple sum, twist or decode per element, and no
    strict map, RTerrace or transform_hash to carry Z_m ints through
    1-tuples.  A failed endpoint condition decodes its message apart."""
    sources = {p.stem: ast.parse(p.read_text()) for p in SOURCES}
    assert _element_callers(sources, INDEX_PATH) == set()


def test_search_does_no_element_arithmetic():
    """The R-terrace search takes differences from its table of indices and
    tests independence and element orders on subgroup masks: no tuple sum,
    difference or subgroup per node."""
    sources = {p.stem: ast.parse(p.read_text()) for p in SOURCES}
    assert _element_callers(sources, ["rotational.search_r_terrace"], SEARCH_CALLS) == set()


def test_product_finisher_does_no_element_arithmetic():
    """The finisher maps the terrace and the hash to indices once, takes its
    targets from the twist table, tests the p-block and independence on
    index multiples and digits, and applies psi by its index table."""
    sources = {p.stem: ast.parse(p.read_text()) for p in SOURCES}
    assert _element_callers(sources, ["pipelines._finish_template"], FINISHER_CALLS) == set()


def test_element_call_detector():
    a = (
        "def clean(enc, i):\n    return enc.quot(i, 0)\n\n"
        "def adds(A, x, y):\n    return A.add(x, y)\n\n"
        "def shows(decode, i):\n    return f'{decode(i)}'\n\n"
        "def passes(enc):\n    return report(enc.decode)\n\n"
        "def maps(enc, a):\n    return enc.indices(a.entries)\n\n"
        "def wraps(A, xs):\n    return RTerrace(A, tuple((x,) for x in xs))\n\n"
        "def scales(h, u):\n    return harmonious.transform_hash(h, 'scale', u)\n"
    )
    b = "class C:\n    def m(self, alpha, v):\n        return alpha.apply_power(2, v)\n"
    sources = {"a": ast.parse(a), "b": ast.parse(b)}
    flagged = {"a.adds", "a.shows", "a.maps", "a.wraps", "a.scales", "b.C.m"}
    assert _element_callers(sources, ["a.clean", "a.passes", *flagged]) == flagged
    c = (
        "def search(A, enc, xs):\n    return RTerrace(A, tuple(zip(*enc.columns(xs))))\n\n"
        "def nested(A, x, y):\n    def step():\n        return A.sub(x, y)\n    return step\n\n"
        "def subgroup(A, x):\n    return A.cyclic_subgroup(x)\n\n"
        "def meets(A, x, y):\n    return independent(x, y)\n\n"
        "def orders(A, xs):\n    return [A.element_order(x) for x in xs]\n"
    )
    sources = {"c": ast.parse(c)}
    flagged = {"c.nested", "c.subgroup", "c.meets", "c.orders"}
    assert _element_callers(sources, ["c.search", *flagged], SEARCH_CALLS) == flagged
    d = (
        "def finish(psi, xs):\n    image = psi.table()\n    return [image[x] for x in xs]\n\n"
        "def maps(psi, xs):\n    return [psi.apply(x) for x in xs]\n\n"
        "def twists(alpha, v):\n    return alpha.apply_power(2, v)\n\n"
        "def rotates(h):\n    return transform_hash(h, 'rotate', 1)\n\n"
        "def bases(u, v):\n    return groups.extend_to_basis([u, v], 2, 5)\n\n"
        "def sums(A, x, y):\n    return A.add(x, y)\n"
    )
    sources = {"d": ast.parse(d)}
    flagged = {"d.maps", "d.twists", "d.rotates", "d.bases", "d.sums"}
    assert _element_callers(sources, ["d.finish", *flagged], FINISHER_CALLS) == flagged


def _cap_checks_raising_other(sources: dict[str, ast.Module]) -> set[str]:
    """module.definition for each top-level statement holding an `if` whose
    test reads a name bound to desk_cap(...) and whose body raises anything
    but DeskScaleExceeded, or nothing."""
    found = set()
    for path, tree in sources.items():
        for stmt in tree.body:
            caps = {
                t.id
                for node in ast.walk(stmt)
                if isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and "desk_cap"
                in (getattr(node.value.func, "id", None), getattr(node.value.func, "attr", None))
                for t in node.targets
                if isinstance(t, ast.Name)
            }
            for node in ast.walk(stmt):
                if not (isinstance(node, ast.If) and caps & _names_used(node.test)):
                    continue
                raised = [
                    r.exc.func if isinstance(r.exc, ast.Call) else r.exc
                    for body_stmt in node.body
                    for r in ast.walk(body_stmt)
                    if isinstance(r, ast.Raise) and r.exc is not None
                ]
                names = {getattr(e, "id", None) or getattr(e, "attr", None) for e in raised}
                if names != {"DeskScaleExceeded"}:
                    found.add(f"{Path(path).stem}.{getattr(stmt, 'name', '<module>')}")
    return found


def test_every_desk_cap_raises_desk_scale_exceeded():
    """A refused scale exits 2 from the CLI whichever cap refused it."""
    sources = {p.name: ast.parse(p.read_text()) for p in SOURCES}
    assert _cap_checks_raising_other(sources) == set()


def test_cap_check_detector():
    a = (
        "def ok(n):\n    cap = desk_cap(5)\n    if n > cap:\n"
        "        raise errors.DeskScaleExceeded(n)\n    if n < 1:\n        raise ValueError(n)\n\n"
        "def other(n):\n    cap = desk.desk_cap(5)\n    if n > cap:\n        raise ShapeMismatch(n)\n\n"
        "def silent(n):\n    limit = desk_cap(5)\n    if n > limit:\n        return None\n"
    )
    b = "class C:\n    def m(self, n):\n        cap = desk_cap(5)\n        if n >= cap:\n            raise NotFound\n"
    sources = {"a.py": ast.parse(a), "b.py": ast.parse(b)}
    assert _cap_checks_raising_other(sources) == {"a.other", "a.silent", "b.C"}


def test_traced_names_resolve():
    """The benchmark's tracer reads every listed name with getattr, so a rename breaks traced runs."""
    import importlib
    import importlib.util

    path = SRC.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for mod_name, names in tracing.TRACED.items():
        mod = importlib.import_module(f"seqlatin.{mod_name}")
        for attr in names:
            owner = mod
            for part in attr.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{mod_name}.{attr}")
    assert missing == []


def _public_definitions(tree: ast.Module) -> list[str]:
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def _unreached_definitions(sources: dict[str, ast.Module], traced: set[str]) -> list[str]:
    """Public top-level definitions outside oracle.py that no other top-level
    statement of the sources names and the tracer does not list.

    An import does not count: it names a definition without using it.
    """
    used = set()
    for tree in sources.values():
        for stmt in tree.body:
            used |= _names_used(stmt) - {getattr(stmt, "name", None)}
    return [
        f"{path}:{name}"
        for path, tree in sources.items()
        if path.startswith("src/") and not path.endswith("/oracle.py")
        for name in _public_definitions(tree)
        if name not in traced and name not in used
    ]


def test_every_public_definition_is_reached():
    """Code that only the tests call is a second copy of a fact the package
    already checks, or dead: it belongs in oracle.py or nowhere."""
    root = SRC.parent
    paths = [*SOURCES, *sorted((root / "perfbench").glob("*.py"))]
    sources = {str(p.relative_to(root)): ast.parse(p.read_text()) for p in paths}
    tracing = sources["perfbench/tracing.py"]
    table = next(
        n.value for n in tracing.body
        if isinstance(n, ast.Assign) and [t.id for t in n.targets] == ["TRACED"]
    )
    traced = {part for names in ast.literal_eval(table).values() for n in names for part in n.split(".")}
    assert _unreached_definitions(sources, traced) == []


def test_unreached_definition_detector():
    sources = {
        "src/seqlatin/a.py": ast.parse("def used():\n    return 1\n\ndef unused():\n    return used()\n"),
        "src/seqlatin/b.py": ast.parse("from .a import unused\n\ndef loop():\n    return loop()\n"),
        "src/seqlatin/oracle.py": ast.parse("def reference():\n    pass\n"),
        "perfbench/c.py": ast.parse("X = b.traced\n"),
    }
    assert _unreached_definitions(sources, {"traced"}) == [
        "src/seqlatin/a.py:unused",
        "src/seqlatin/b.py:loop",
    ]
