"""Rules that every module of the package keeps."""

import ast
from pathlib import Path

import effact


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

    def targets(node):
        if isinstance(node, (ast.Assign, ast.Delete)):
            return node.targets
        if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            return [node.target]
        return []

    root = Path(effact.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            written = [t for target in targets(node)
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
    # the collector's state is process-wide: only compiler._collector_scope
    # changes it, for one compile step at a time
    root = Path(effact.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {id(node) for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef)
                   and (path.name, fn.name) == ("compiler.py",
                                                "_collector_scope")
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
