"""Rules that every module of the package keeps."""

import ast
import importlib
import inspect
import tomllib
from pathlib import Path

import pytest

import effact
from effact import cli, sim
from effact.ir import OPCODES


def assigned(node) -> list:
    """The targets that a statement assigns, augments or deletes."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        return node.targets
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    return []


def test_no_assert_statements():
    # `python -O` strips asserts; invariants raise explicit errors instead
    root = Path(effact.__file__).parent
    found = [f"{path.relative_to(root)}:{node.lineno}"
             for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_pop_front():
    # list.pop(0) shifts the whole list: queues are heaps or deques
    root = Path(effact.__file__).parent
    found = [f"{path.relative_to(root)}:{node.lineno}"
             for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "pop" and len(node.args) == 1
             and isinstance(node.args[0], ast.Constant)
             and node.args[0].value == 0]
    assert found == []


def test_one_interpreter_of_scalar_control_flow():
    # ir.walk is the only code that gives loop/endloop/skipz a meaning; the
    # compiler and the executor consume what it yields
    root = Path(effact.__file__).parent
    found = [f"{path.relative_to(root)}:{node.lineno}"
             for path in sorted(root.rglob("*.py")) if path.name != "ir.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Constant)
             and node.value in ("loop", "endloop", "skipz")]
    assert found == []


def test_no_per_limb_loops_in_ckks():
    # ckks calls each kernel once per polynomial: no loop or comprehension
    # walks the limbs of one
    path = Path(effact.__file__).parent / "ckks.py"
    iters = [node.iter for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.For, ast.comprehension))]
    found = [f"ckks.py:{it.lineno}" for it in iters
             for node in ast.walk(it)
             if isinstance(node, ast.Attribute) and node.attr == "limbs"]
    assert found == []


def test_no_per_word_draws_in_ckks():
    # ckks draws its randomness in bulk (`replay`): no randrange, gauss or
    # choice call runs once per word inside a loop or comprehension
    path = Path(effact.__file__).parent / "ckks.py"
    loops = [node for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.For, ast.While, ast.ListComp,
                                  ast.SetComp, ast.DictComp,
                                  ast.GeneratorExp))]
    found = sorted({f"ckks.py:{node.lineno}" for loop in loops
                    for node in ast.walk(loop)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("randrange", "gauss", "choice")})
    assert found == []


def test_no_module_changes_the_instructions_of_a_program():
    # programs are immutable, so the analyses kept on one cannot go stale:
    # no assignment to `.instrs` or to an item of it, and no call that
    # would change it in place
    mutators = {"append", "extend", "insert", "pop", "remove", "sort",
                "reverse", "clear"}

    def instrs(node):
        return isinstance(node, ast.Attribute) and node.attr == "instrs"

    root = Path(effact.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            written = [t for target in assigned(node)
                       for t in ast.walk(target)
                       if instrs(t) or isinstance(t, ast.Subscript)
                       and instrs(t.value)]
            if written or (isinstance(node, ast.Call)
                           and isinstance(node.func, ast.Attribute)
                           and node.func.attr in mutators
                           and instrs(node.func.value)):
                found.append(f"{path.relative_to(root)}:{node.lineno}")
    assert found == []


def test_one_helper_touches_the_collector():
    # the collector's state is process-wide: only ir._collector_scope
    # changes it, for one step at a time
    root = Path(effact.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {id(node) for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef)
                   and (path.name, fn.name) == ("ir.py", "_collector_scope")
                   for node in ast.walk(fn)}
        found += [f"{path.relative_to(root)}:{node.lineno}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module == "gc"
                  or isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and isinstance(node.func.value, ast.Name)
                  and node.func.value.id == "gc"
                  and id(node) not in allowed]
    assert found == []


def test_one_context_manager_reports_bad_input():
    # the CLI turns a caught exception into a CliError in one place,
    # `cli._stage`, for every stage of every command
    tree = ast.parse(Path(cli.__file__).read_text())
    allowed = {id(node) for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) and fn.name == "_stage"
               for node in ast.walk(fn)}
    made = [node for handler in ast.walk(tree)
            if isinstance(handler, ast.ExceptHandler)
            for node in ast.walk(handler)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "CliError"]
    assert len(made) == 1
    assert [f"cli.py:{node.lineno}" for node in made
            if id(node) not in allowed] == []


def test_bad_input_errors_are_value_errors():
    # a ValueError is bad input, which the CLI reports; every exception
    # class of the library is one (CliError is the CLI's report)
    root = Path(effact.__file__).parent
    classes = {cls for path in root.glob("*.py")
               if path.stem not in ("__init__", "cli")
               for _, cls in inspect.getmembers(
                   importlib.import_module(f"effact.{path.stem}"),
                   inspect.isclass)
               if issubclass(cls, BaseException)
               and cls.__module__.startswith("effact.")}
    assert {cls.__name__ for cls in classes} == {
        "IrError", "ExecError", "ContractError", "ReprError"}
    assert all(issubclass(cls, ValueError) for cls in classes)


def test_a_broken_invariant_is_not_reported_as_bad_input(tmp_path,
                                                         monkeypatch, capsys):
    # a RuntimeError is a bug: it leaves `effact sim` as itself, not as
    # error[sim]
    src = tmp_path / "p.eir"
    src.write_text(".n 16\n.mod q0 97\n.dram x 1\n.dram y 1\n"
                   "%a = load @x[0]\nstore %a, @y[0]\n")
    easm = tmp_path / "p.easm"
    assert cli.main(["compile", str(src), "-o", str(easm)]) == 0

    class Board(sim._Board):
        # every key starts on a longest path far beyond any schedule
        def __missing__(self, key):
            e = self[key] = [0, 0, 10 ** 12, 0]
            return e

    monkeypatch.setattr(sim, "_Board", Board)
    with pytest.raises(RuntimeError, match="critical path"):
        cli.main(["sim", str(easm)])
    assert "error[" not in capsys.readouterr().err


def test_no_module_changes_a_meta_in_place():
    # instructions share their meta mappings (every one without meta the
    # one `ir.NO_META`): no assignment to or deletion of an item of a
    # `.meta`, no augmented assignment of one, and no call that would
    # change one in place
    mutators = {"update", "setdefault", "pop", "popitem", "clear"}

    def meta(node):
        return isinstance(node, ast.Attribute) and node.attr == "meta"

    def written(target, augmented):
        """Whether a target writes into a `.meta`: an item of one, at any
        depth, or, augmented, the mapping itself."""
        if isinstance(target, (ast.Tuple, ast.List)):
            return any(written(t, augmented) for t in target.elts)
        if isinstance(target, ast.Starred):
            return written(target.value, augmented)
        item = isinstance(target, ast.Subscript)
        while isinstance(target, ast.Subscript):
            target = target.value
        return meta(target) and (item or augmented)

    root = Path(effact.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            augmented = isinstance(node, ast.AugAssign)
            if any(written(t, augmented) for t in assigned(node)) or (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in mutators
                    and meta(node.func.value)):
                found.append(f"{path.relative_to(root)}:{node.lineno}")
    assert found == []


def test_only_ir_lists_opcodes():
    # what an opcode is lives in one table, `ir.OPCODES`, and the views of
    # it built there: no other module spells a set, tuple, list or dict
    # literal of two or more opcode names.  Three unit classes share their
    # names with opcodes (ntt, mmul, auto), so a literal whose opcode names
    # are all unit class names names units.  The one exception is the
    # choice list of `cli._gen_random`, whose order fixes the output of
    # `effact gen random`.
    units = {row.unit for row in OPCODES.values()}
    root = Path(effact.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "ir.py":
            continue
        tree = ast.parse(path.read_text())
        allowed = {id(node) for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef)
                   and (path.name, fn.name) == ("cli.py", "_gen_random")
                   for node in ast.walk(fn) if isinstance(node, ast.List)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
                items = node.elts
            elif isinstance(node, ast.Dict):
                items = [k for k in node.keys if k is not None] + node.values
            else:
                continue
            names = [n.value for n in items if isinstance(n, ast.Constant)
                     and isinstance(n.value, str) and n.value in OPCODES]
            if len(names) >= 2 and not set(names) <= units \
                    and id(node) not in allowed:
                found.append(f"{path.relative_to(root)}:{node.lineno}")
    assert found == []


def test_every_name_the_benchmark_imports_exists():
    # bench/harness.py imports the passes it times by name, and each of its
    # calls to a name imported from effact, or to a function of a module
    # imported from it (`ckks.X`, `cli.X`), binds to that function's
    # signature: a pass renamed or deleted, or a parameter renamed or
    # dropped, fails here, not only in a benchmark run
    path = Path(__file__).resolve().parents[1] / "bench" / "harness.py"
    tree = ast.parse(path.read_text())
    names, missing, imported = [], [], {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level \
                or node.module.split(".")[0] != "effact":
            continue
        module = importlib.import_module(node.module)
        for alias in node.names:
            names.append(f"{node.module}.{alias.name}")
            try:
                imported[alias.asname or alias.name] = (
                    getattr(module, alias.name)
                    if hasattr(module, alias.name)
                    else importlib.import_module(names[-1]))  # a submodule
            except ImportError:
                missing.append(names[-1])
    assert missing == []
    assert {"effact.compiler.propagate", "effact.compiler.merge_spill_traffic",
            "effact.sim.simulate"} <= set(names)
    calls, unbound = 0, []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id in imported:
            fn = imported[f.id]
        elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) \
                and inspect.ismodule(imported.get(f.value.id)):
            fn = getattr(imported[f.value.id], f.attr)
        else:
            continue
        calls += 1
        try:
            inspect.signature(fn).bind(
                *node.args, **{k.arg: k.value for k in node.keywords})
        except TypeError as e:
            unbound.append(f"harness.py:{node.lineno}: {e}")
    assert unbound == []
    assert calls >= 50


def test_one_function_checks_references():
    # what an instruction may reference (declared constants of its
    # modulus) is checked by one function, `ir.check_refs`, wherever a
    # program enters the stack: no other code raises its messages
    messages = ("unknown constant", "is for modulus")
    root = Path(effact.__file__).parent
    found, inside = [], 0
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {id(node) for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef)
                   and (path.name, fn.name) == ("ir.py", "check_refs")
                   for node in ast.walk(fn)}
        for raised in ast.walk(tree):
            if not isinstance(raised, ast.Raise):
                continue
            for node in ast.walk(raised):
                if isinstance(node, ast.Constant) \
                        and isinstance(node.value, str) \
                        and any(m in node.value for m in messages):
                    if id(node) in allowed:
                        inside += 1
                    else:
                        found.append(f"{path.relative_to(root)}:"
                                     f"{node.lineno}")
    assert found == []
    assert inside == len(messages)


def scopes(tree) -> dict:
    """The qualified name of the class or function around each node
    (`Program.__setattr__`), "" at module level."""
    out = {}

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            inner = name
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = f"{name}.{child.name}" if name else child.name
            out[id(child)] = inner
            visit(child, inner)

    visit(tree, "")
    return out


def test_raised_exceptions_are_bad_input_or_bugs():
    # every `raise X(...)` of the package names a ValueError (bad input:
    # ValueError itself or a library subclass of it), a RuntimeError (a
    # bug), the AttributeError of an immutable program, or the CLI's
    # report
    anywhere = {"ValueError", "IrError", "ExecError", "ContractError",
                "ReprError", "RuntimeError"}
    only_in = {"AttributeError": ("ir.py", "Program.__setattr__"),
               "CliError": ("cli.py", None)}
    root = Path(effact.__file__).parent
    found = []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text())
        scope = scopes(tree)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Raise)
                    and isinstance(node.exc, ast.Call)):
                continue
            name = ast.unparse(node.exc.func)
            file, owner = only_in.get(name, (None, None))
            if name in anywhere or file == path.name \
                    and owner in (None, scope[id(node)]):
                continue
            found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == []


def test_only_the_hardware_description_reads_what_code_costs():
    # what an opcode, a unit and the DRAM channel cost is one table,
    # `HardwareDescription.timing`, which the scheduler and the simulator
    # read: no other code reads the fields it is made of, but for the one
    # listed read, with its reason
    costs = {"lanes", "ntt_pipelines", "lat_override", "fu", "dram_bw"}
    allowed = {
        # the byte bound on a report: its DRAM bytes fit in its cycles
        ("sim.py", "simulate", "dram_bw"),
    }
    root = Path(effact.__file__).parent
    found = []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text())
        scope = scopes(tree)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and node.attr in costs):
                continue
            owner = scope[id(node)]
            if owner.split(".")[0] != "HardwareDescription" and \
                    (path.name, owner, node.attr) not in allowed:
                found.append(f"{path.name}:{node.lineno}: {owner}."
                             f"{node.attr}")
    assert found == []


# library entry points that no command and no benchmark step calls, each
# kept for its reason
LIBRARY_ROOTS = {
    "ckks.hadd": "the desk HE API, beside hmult and hrot",
    "workloads.fullscale_params": "the paper's full-scale parameter point",
    "__version__": "the package's version",
}


def qualified(module: str, name: str) -> str:
    """`ckks.hadd`; a name of the package itself (`__init__.py`) bare."""
    return f"{module}.{name}" if module else name


def module_trees() -> dict:
    """The parsed modules of the package, keyed by module name ("" for
    the package itself)."""
    root = Path(effact.__file__).parent
    return {("" if path.stem == "__init__" else path.stem):
            ast.parse(path.read_text()) for path in sorted(root.glob("*.py"))}


def effact_module(name: str):
    """The module name that `effact.X` or `effact.X.Y` names, or None."""
    parts = name.split(".")
    return ".".join(parts[1:]) if parts[0] == "effact" else None


def imports(tree):
    """(node, bound name, module, imported name or None) of each import
    of a tree, at any depth; `from __future__` binds nothing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`; `import a.b as c` binds `a.b`
                module = alias.name if alias.asname \
                    else alias.name.split(".")[0]
                yield node, alias.asname or module, module, None
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            module = ("effact." if node.level else "") + (node.module or "")
            for alias in node.names:
                yield node, alias.asname or alias.name, \
                    module.rstrip("."), alias.name


def benchmark_roots(modules: set) -> set:
    """Every name of the package that a `bench/*.py` file imports by name
    or reads as an attribute of an imported module (`ckks.hmult`,
    `effact.__version__`); `modules` are the package's module names."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    roots = set()
    for path in sorted(bench.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = {}
        for _, name, module, item in imports(tree):
            module = effact_module(module)
            if module is None:
                continue
            target = module if item is None else qualified(module, item)
            if target in modules:
                bound[name] = target
            else:
                roots.add(target)
        roots |= {qualified(bound[node.value.id], node.attr)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in bound}
    return roots


def script_roots() -> set:
    """The functions that `pyproject.toml` installs as commands."""
    path = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(path.read_text())["project"]["scripts"]
    return {qualified(effact_module(target.split(":")[0]),
                      target.split(":")[1]) for target in scripts.values()}


def unreachable(trees: dict, roots) -> list:
    """The top-level functions, classes and constants of the modules that
    no path of references leads to from the roots.  A name read in a
    module is its own top-level name or the one it imports; an attribute
    `.x` reaches every top-level `x`, so this can only miss dead code.
    Top-level statements that define nothing run on import: roots too."""
    defs, imported, by_name, todo = {}, {}, {}, list(roots)
    for module, tree in trees.items():
        for _, name, source, item in imports(tree):
            source = effact_module(source)
            if source is not None and item is not None:
                imported[qualified(module, name)] = qualified(source, item)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            else:
                names = [n.id for target in assigned(stmt)
                         for n in ast.walk(target) if isinstance(n, ast.Name)]
            if not names and not isinstance(stmt, (ast.Import,
                                                   ast.ImportFrom)):
                defs[f"{module}:{stmt.lineno}"] = (module, stmt)
                todo.append(f"{module}:{stmt.lineno}")
            for name in names:
                defs[qualified(module, name)] = (module, stmt)
                by_name.setdefault(name, []).append(qualified(module, name))

    def refs(module, stmt):
        for node in ast.walk(stmt):
            if isinstance(node, ast.Attribute):
                yield from by_name.get(node.attr, ())
            elif isinstance(node, ast.Name):
                yield qualified(module, node.id)

    reached = set()
    while todo:
        name = todo.pop()
        while name in imported:     # an imported name is the one it imports
            name = imported[name]
        if name in defs and name not in reached:
            reached.add(name)
            todo += refs(*defs[name])
    return sorted(set(defs) - reached)


def unread_imports(trees: dict) -> list:
    """The imports of each module whose bound name the module never
    reads."""
    found = []
    for module, tree in trees.items():
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        found += [f"{module or '__init__'}.py:{node.lineno}: {name}"
                  for node, name, _, _ in imports(tree) if name not in read]
    return sorted(found)


def test_every_top_level_name_is_reachable():
    # every top-level function, class and constant of the package is
    # reached by references from a command, from a name the benchmark
    # uses or from a listed library root; and every import is read
    trees = module_trees()
    roots = script_roots() | benchmark_roots(set(trees)) | set(LIBRARY_ROOTS)
    assert {"cli.main", "ckks.hmult", "sim.simulate"} <= roots
    assert unreachable(trees, roots) == []
    assert unread_imports(trees) == []

    # the rule sees a planted orphan and a planted unread import
    plant = ast.parse("import struct\ndef _orphan():\n    return 0\n")
    planted = dict(trees, rns=ast.Module(trees["rns"].body + plant.body, []))
    assert unreachable(planted, roots) == ["rns._orphan"]
    assert [f.split(": ")[1] for f in unread_imports(planted)] == ["struct"]
