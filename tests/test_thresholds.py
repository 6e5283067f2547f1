"""The threshold table: every entry says what it guards, and no other module
compares with a threshold literal of its own."""

import ast
import pathlib
import re

import biconserve
from biconserve import cli, thresholds

SRC = pathlib.Path(biconserve.__file__).resolve().parent
TABLE = SRC / "thresholds.py"
FORM = re.compile(r"# guards \S.*; scale \S.*; source \S.*")
# float literals a comparison or a guard may hold outside the table: signs,
# halves and doubles of the quantity compared, not cut-offs
EXCEPTIONS = {0.0, 1.0, -1.0, 0.5, 2.0}
# (module, literal): sizes that reach a guard's argument, with what they size
MODULE_EXCEPTIONS = {
    ("profiles.py", 0.05): "the widest quadrature panel, an argument of np.maximum",
    ("profiles.py", 1e-3): "the widest rk4 step, an argument of max",
}
GUARDS = ("where", "maximum", "max")  # np.where, np.maximum, np.max and max


def _entries():
    """(name, line, value node) per public entry of the table."""
    for node in ast.parse(TABLE.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = node.targets[0]
            if isinstance(name, ast.Name) and not name.id.startswith("_"):
                yield name.id, node.lineno, node.value


def test_every_entry_has_its_comment():
    lines = TABLE.read_text().splitlines()
    missing = []
    for name, line, value in _entries():
        keys = value.keys if isinstance(value, ast.Dict) else []
        for what, at in [(name, line)] + [(f"{name}[{ast.unparse(k)}]", k.lineno) for k in keys]:
            if not FORM.fullmatch(lines[at - 2].strip()):
                missing.append(what)
    assert not missing, f"entries without '# guards ...; scale ...; source ...': {missing}"


def test_every_entry_is_read():
    names = {name for name, _, _ in _entries()}
    read = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("thresholds"):
                read |= {alias.name for alias in node.names}
    assert names - read == set()


def _guarded(tree):
    """The nodes a threshold literal must stay out of: each comparison, and
    each argument of a call of np.where, np.maximum or max."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            yield node
        elif isinstance(node, ast.Call):
            fn = node.func
            name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
            if name in GUARDS:
                yield from node.args
                yield from (kw.value for kw in node.keywords)


def test_no_threshold_literal_outside_the_table():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        if path == TABLE:
            continue
        module = path.relative_to(SRC).as_posix()
        for node in _guarded(ast.parse(path.read_text())):
            negated = {id(n.operand) for n in ast.walk(node)
                       if isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.USub)}
            for sub in ast.walk(node):
                if not (isinstance(sub, ast.Constant) and type(sub.value) is float):
                    continue
                value = -sub.value if id(sub) in negated else sub.value
                if value not in EXCEPTIONS and (module, value) not in MODULE_EXCEPTIONS:
                    found.add(f"{module}:{sub.lineno}: {value!r}")
    assert not found, f"threshold literals outside thresholds.py: {sorted(found)}"


def test_the_tolerance_flags_keep_their_order():
    # principal_direction shares the tangency row's tolerance and has no flag
    assert cli.TOLERANCE_FLAGS == ("biconservative", "beltrami", "gauss", "codazzi",
                                   "unit_normal")
    assert cli.TOLERANCE_FLAGS == tuple(thresholds.DEFAULT_TOLERANCES)
