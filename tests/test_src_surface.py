"""src/cyclochar holds only what the program runs.

Every module-level function and every method under src/cyclochar must be
reached from src/ itself: from module-level code, or from another function
that is reached in turn.  A reference inside a function's own definition
does not count, nor does one inside a function that is not reached, so a
cluster of helpers that only each other (or only tests) call fails as a
whole.  Test references, oracles and lemmas a sweep never runs belong in
the test modules that read them.

References are matched by name, so the check can miss an unused function
that shares a name with a used one.  A module-level function counts as
referenced by a bare name or an attribute (`polyring.poly_divmod`), a method
only by an attribute (`ctx.add`).  A definition that code outside src/
calls, or that is looked up by a string, needs an exemption.

Every name a module under src/, scripts/ or tests/ imports must also be
read in the scope that imports it (a function-local import in that
function, a module-level one anywhere in the module), unless the module
lists it in __all__: a module is no re-export hub for names it does not
use.

A verify sweep returns (checked, counterexample) and never names its
property: verify.run_block alone makes a PropertyResult, named by the
sweep's key in verify._RUNNERS.

No function under src/ carries a functools.lru_cache or functools.cache
decorator: a sweep that needs a result twice keeps it for the one block
it runs on, so the package holds no state that outlives a call.

A FieldCtx carries q and k, a WeightDistribution its length n, and a
BruteForceMemo its field and brute-force cap: no function under src/
takes one of them, or an optional one, together with a parameter that
restates it, so the two can never disagree.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cyclochar"

# Definitions that stay without a caller in src/, each with its reason.
TRACED_REASON = "perfbench/traced_item.py wraps it by name"
EXEMPT = {
    "cli.main": "the console-script entry point, called from outside the package",
    "cli._Parser.error": "argparse calls it: the override of ArgumentParser.error",
    "gf.FieldCtx.trace_q_symbol_list": TRACED_REASON,
    "gf.FieldCtx.char_exponent_list": TRACED_REASON,
    "characterize.characterize_code": TRACED_REASON,
    "characterize.one_weight_check": TRACED_REASON,
    "characterize.full_weight_divisor": TRACED_REASON,
}


def _is_def(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


def _references(node, owner, out):
    """Append (name, owner, via attribute) for every bare name and attribute under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append((sub.id, owner, False))
        elif isinstance(sub, ast.Attribute):
            out.append((sub.attr, owner, True))


def scan(src=SRC):
    """(defs, refs): defs maps a qualified name to (bare name, is_method);
    refs holds (name, owning definition or None, via attribute)."""
    defs, refs = {}, []
    for path in sorted(src.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for item in tree.body:
            if _is_def(item):
                qual = f"{module}.{item.name}"
                defs[qual] = (item.name, False)
                _references(item, qual, refs)
            elif isinstance(item, ast.ClassDef):
                for member in item.body:
                    if _is_def(member):
                        qual = f"{module}.{item.name}.{member.name}"
                        defs[qual] = (member.name, True)
                        _references(member, qual, refs)
                    else:
                        _references(member, None, refs)
                for extra in item.bases + item.keywords + item.decorator_list:
                    _references(extra, None, refs)
            else:
                _references(item, None, refs)
    return defs, refs


def unreached(src=SRC):
    """Qualified names of the definitions nothing reached in src/ refers to."""
    defs, refs = scan(src)
    by_name = {}
    for name, owner, via_attr in refs:
        by_name.setdefault(name, []).append((owner, via_attr))
    roots = {
        qual for qual, (name, _) in defs.items()
        if qual in EXEMPT or (name.startswith("__") and name.endswith("__"))
    }
    dead: set[str] = set()
    while True:
        newly = {
            qual for qual, (name, is_method) in defs.items()
            if qual not in roots and qual not in dead and not any(
                owner != qual and owner not in dead and (via_attr or not is_method)
                for owner, via_attr in by_name.get(name, ())
            )
        }
        if not newly:
            return sorted(dead)
        dead |= newly


def test_every_src_function_is_reached_from_src():
    dead = unreached()
    assert not dead, f"nothing in src/ reaches {dead}: move them to tests or delete them"


def test_every_exemption_names_a_definition():
    defs, _ = scan()
    assert sorted(set(EXEMPT) - set(defs)) == []


def _assigned(tree, name):
    """The value of the module-level assignment to name in tree."""
    (value,) = [
        item.value for item in tree.body
        if isinstance(item, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in item.targets
        )
    ]
    return value


def traced_names(path=ROOT / "perfbench" / "traced_item.py"):
    """module.function or module.Class.method of every TRACED entry, read
    from the source: the benchmark's file is neither imported nor edited."""
    table = _assigned(ast.parse(path.read_text(encoding="utf-8")), "TRACED")
    return {f"{ast.unparse(owner)}.{attr.value}" for owner, attr, _ in (e.elts for e in table.elts)}


def test_every_perfbench_exemption_names_a_traced_function():
    # a benchmark change that stops tracing one of these leaves it no caller
    stale = sorted(
        name for name, reason in EXEMPT.items()
        if reason == TRACED_REASON and name not in traced_names()
    )
    assert not stale, f"perfbench/traced_item.py no longer wraps {stale}"


def _imports(scope):
    """The import statements of scope, not those of the functions inside it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not _is_def(node):
            stack.extend(ast.iter_child_nodes(node))


def _exported(tree):
    for item in tree.body:
        if isinstance(item, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in item.targets
        ):
            return set(ast.literal_eval(item.value))
    return set()


def unused_imports(src=SRC):
    """dir.module.name for every imported name its scope never reads, bar __all__."""
    unused = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        exported = _exported(tree)
        for scope in [tree, *(node for node in ast.walk(tree) if _is_def(node))]:
            read = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
            for stmt in _imports(scope):
                if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                    continue
                for alias in stmt.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read and name not in exported:
                        unused.append(f"{src.name}.{path.stem}.{name}")
    return sorted(unused)


def test_every_imported_name_is_read():
    unused = [name for d in (SRC, ROOT / "scripts", ROOT / "tests") for name in unused_imports(d)]
    assert not unused, f"imported but never read: {unused}: delete the imports"


def _calls(tree, module):
    """(owner, call) for every call in tree: the owner is module.function for
    a call under a module-level function, the module for any other."""
    for item in tree.body:
        owner = f"{module}.{item.name}" if _is_def(item) else module
        for node in ast.walk(item):
            if isinstance(node, ast.Call):
                yield owner, node


def test_only_run_block_makes_a_property_result():
    makers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for owner, call in _calls(tree, path.stem):
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "PropertyResult":
                makers.add(owner)
    assert makers == {"verify.run_block"}


def test_no_sweep_names_its_property():
    # each _RUNNERS value is a lambda calling its sweep by module-global name
    tree = ast.parse((SRC / "verify.py").read_text(encoding="utf-8"))
    table = _assigned(tree, "_RUNNERS")
    props = {key.value for key in table.keys}
    sweeps = {runner.body.func.id for runner in table.values}
    defs = [item for item in tree.body if _is_def(item) and item.name in sweeps]
    assert len(defs) == len(sweeps) == len(props)
    named = sorted(
        f"{sweep.name}: {node.value}" for sweep in defs for node in ast.walk(sweep)
        if isinstance(node, ast.Constant) and node.value in props
    )
    assert not named, f"sweeps that name their property: {named}"


# annotation -> the parameter names an argument so annotated already carries
RESTATED = {
    "FieldCtx": {"q", "k"},
    "WeightDistribution": {"n"},
    "BruteForceMemo": {"ctx", "brute_cap"},
}


def _annotated_type(annotation):
    """The type an annotation names, an optional `X | None` read as X."""
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        sides = [
            side for side in (annotation.left, annotation.right)
            if not (isinstance(side, ast.Constant) and side.value is None)
        ]
        if len(sides) == 1:
            annotation = sides[0]
    return ast.unparse(annotation) if annotation else None


def restated_parameters(src=SRC):
    """module.function: annotation (names) for every function under src that
    takes an argument annotated with a RESTATED type, or that type or None,
    and one it restates."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not _is_def(node):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
            names = {a.arg for a in params}
            for a in params:
                kind = _annotated_type(a.annotation)
                clash = sorted(RESTATED.get(kind, set()) & names)
                if clash:
                    found.append(f"{path.stem}.{node.name}: {kind} ({', '.join(clash)})")
    return sorted(set(found))


def test_no_parameter_restates_a_field_or_a_distribution():
    found = restated_parameters()
    assert not found, f"read these from the FieldCtx or WeightDistribution: {found}"


_CACHES = {"lru_cache", "cache"}


def cached_functions(src=SRC):
    """module.function for every function under src decorated with a
    functools cache, bare or called, by bare name or as functools.<name>."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not _is_def(node):
                continue
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)
                if name in _CACHES:
                    found.append(f"{path.stem}.{node.name}")
    return sorted(found)


def test_no_function_keeps_a_process_wide_cache():
    found = cached_functions()
    assert not found, f"process-wide caches on {found}: keep results per block instead"


def test_the_cache_guard_sees_every_decorator_form(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=64)\ndef a(): pass\n"
        "@functools.lru_cache\ndef b(): pass\n"
        "@cache\ndef c(): pass\n"
        "class K:\n    @functools.cache\n    def d(self): pass\n"
        "def e(): pass\n",
        encoding="utf-8",
    )
    assert cached_functions(tmp_path) == ["mod.a", "mod.b", "mod.c", "mod.d"]
