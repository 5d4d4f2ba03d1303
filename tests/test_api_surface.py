"""Every function, class and method in ``src/slicesim`` has a caller, every field a reader,
and every parameter default a call that needs it.

A function or class counts as used when ``src/`` or ``perfbench/`` refers to
it, as a bare name or as an attribute, outside its own definition.  A method
or property counts as used only when it is referred to as an attribute
(``x.name``), so a local variable or parameter that shares its name does not
hide it.  A re-export from ``slicesim/__init__.py`` is an import, not a use.
Matching is by name, so two definitions that share a name cover each other
and the guard can miss dead code.  Dunder methods are called by the language
and are skipped.

A field is a name annotated in a class body (a dataclass or ``NamedTuple``
field, or a class annotation).  It counts as read when ``src/`` or
``perfbench/`` loads it as an attribute (``x.name``, not ``x.name = ...``)
or spells its name as a string constant, since perfbench reads report fields
through ``getattr`` by name; reads in the field's own declaration do not
count, while reads in its class's methods do, as those methods have callers.
This matching is by name as well: a field counts as read when any other
attribute or string shares its name.  Unread fields that it could not see
were ``SimTrace.initial_state`` (a config key and a ``SimConfig`` field),
``SimTrace.records`` (loaded once, to append to),
``TransitionMatrix.mode`` (the name of many parameters read as attributes)
and ``EmpiricalPmf.bin_width`` (read only as ``FitRow.bin_width``).  Nor
could either rule see the unused ``TransitionMatrix.size`` (read only as an
ndarray's ``.size``) or the abstract ``QueueController.queue_for``, which
both subclasses override, so that the calls reach only theirs.

A parameter of a function or method (``__init__`` included) is checked by
two rules, against the calls in ``src/`` or ``perfbench/`` outside its own
body.  Rule 1: a parameter with a default is passed by some call, by keyword
or by position.  Rule 2: a parameter that defaults to ``None``, and that its
function tests with ``is`` or ``is not``, is left out by some call, so its
``None`` path is taken.  Calls are matched by name, as above; a
``partial(f, ...)`` counts as a call of ``f``, ``ClassName(...)`` and
``super().__init__(...)`` as calls of ``__init__``, and ``*`` or ``**``
unpacking as passing every parameter.  A method's positional arguments start
after ``self``.  A call on a name that ``import <module>`` binds to a module
outside slicesim is skipped, so that ``subprocess.run(...)`` in
``perfbench/`` does not count as a call of ``engine.run``.  Rule 2 cannot
see a ``None`` path reached through another function:
``monte_carlo``'s ``tapes`` defaults to ``None``, and ``_round_runs``, which
it passes them to, tests them.  Nor can it see one that a slicesim
definition or a ``from``-imported name of the same name hides.

A definition that only the tests call does not belong in the package: the
tests' helpers live in ``tests/oracles.py`` (oracles, the model's definitions
that no command needs, and test drivers) and ``tests/criteria.py`` (the
acceptance criteria's harness).  Nor does a parameter that only the tests
set: its value is the constant it always was.
"""

import ast
import functools
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "slicesim"

# Definitions kept without a caller in src/ or perfbench/, each with its reason.
EXEMPT: dict[str, str] = {}

# Fields kept without a reader in src/ or perfbench/, each with its reason.
EXEMPT_FIELDS: dict[str, str] = {}

# Parameters kept against a rule, each with its reason.
EXEMPT_PARAMETERS: dict[str, str] = {
    "markov.build_transition_matrix.opportunity_rate":
        "steady_state.opportunity_rate defaults to None, and the config passes it straight "
        "through, so the None path (the total arrival rate) is taken at run time",
}


@functools.cache
def _parsed() -> tuple[tuple[pathlib.Path, ast.Module], ...]:
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    return tuple((path, ast.parse(path.read_text())) for path in files)


def _trees():
    return [tree for _, tree in _parsed()]


def _references(tree, member):
    """Every attribute name that the tree refers to, and every bare name unless ``member``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Name) and not member:
            yield node.id


def _definitions():
    """(qualified name, short name, node, whether a method) of each top-level def and method."""
    for path, tree in _parsed():
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            yield f"{path.stem}.{node.name}", node.name, node, False
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        yield f"{path.stem}.{node.name}.{sub.name}", sub.name, sub, True


def _unreferenced():
    trees = _trees()
    refs = {member: Counter(name for tree in trees for name in _references(tree, member))
            for member in (False, True)}
    return {qual for qual, name, node, member in _definitions()
            if not (member and name.startswith("__"))  # dunders are called by the language
            and refs[member][name] - Counter(_references(node, member))[name] == 0}


def test_every_definition_has_a_caller():
    orphans = sorted(_unreferenced() - EXEMPT.keys())
    assert not orphans, f"defined in src/slicesim but never used: {orphans}"


def test_exemptions_are_current():
    # an exempt name that gained a caller, or was deleted, leaves the set
    assert sorted(EXEMPT.keys() - _unreferenced()) == []


def _reads(tree):
    """Every attribute name that the tree loads, and every string constant in it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _fields():
    """(qualified name, short name, declaration) of each name annotated in a class body."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                        yield f"{path.stem}.{node.name}.{sub.target.id}", sub.target.id, sub


def _unread():
    reads = Counter(name for tree in _trees() for name in _reads(tree))
    return {qual for qual, name, declaration in _fields()
            if reads[name] - Counter(_reads(declaration))[name] == 0}


def test_every_field_has_a_reader():
    unread = sorted(_unread() - EXEMPT_FIELDS.keys())
    assert not unread, f"fields in src/slicesim that nothing reads: {unread}"


def test_field_exemptions_are_current():
    assert sorted(EXEMPT_FIELDS.keys() - _unread()) == []


def _callee(func) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _foreign_modules(tree) -> set[str]:
    """The names that ``import <module>`` binds in ``tree`` to a module outside slicesim."""
    return {alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names if alias.name.split(".")[0] != "slicesim"}


def _calls():
    """(callee name, positional count, keyword names, node) of each call in src/ and
    perfbench/; a ``partial(f, ...)`` is a call of ``f``, and a call that unpacks ``*`` or
    ``**`` has count and names None, as it may pass every parameter.  A call on a module
    outside slicesim, such as ``np.random.default_rng(...)``, is skipped."""
    for tree in _trees():
        foreign = _foreign_modules(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if _callee(func) == "partial" and args:
                func, args = args[0], args[1:]
            name = _callee(func)
            if name is None:
                continue
            root = func
            while isinstance(root, ast.Attribute):
                root = root.value
            if root is not func and isinstance(root, ast.Name) and root.id in foreign:
                continue
            if (any(isinstance(arg, ast.Starred) for arg in args)
                    or any(keyword.arg is None for keyword in node.keywords)):
                yield name, None, None, node
            else:
                yield name, len(args), {keyword.arg for keyword in node.keywords}, node


def _defaulted(node, member):
    """(name, position, default) of each parameter with a default; the position counts
    the call's positional arguments (after ``self`` in a method), None if keyword-only."""
    spec = node.args
    positional = spec.posonlyargs + spec.args
    defaults = [None] * (len(positional) - len(spec.defaults)) + spec.defaults
    for i, (arg, default) in enumerate(zip(positional, defaults)):
        if default is not None:
            yield arg.arg, i - member, default
    for arg, default in zip(spec.kwonlyargs, spec.kw_defaults):
        if default is not None:
            yield arg.arg, None, default


def _tested_with_is(node, name):
    return any(isinstance(sub, ast.Compare)
               and any(isinstance(op, (ast.Is, ast.IsNot)) for op in sub.ops)
               and any(isinstance(side, ast.Name) and side.id == name
                       for side in (sub.left, *sub.comparators))
               for sub in ast.walk(node))


def _parameter_findings():
    """The parameters that break rule 1 (never passed) or rule 2 (None never left out)."""
    calls = list(_calls())
    found = {}
    for qual, name, node, member in _definitions():
        if isinstance(node, ast.ClassDef):
            continue
        names = {name, qual.split(".")[-2]} if name == "__init__" else {name}
        own = {id(sub) for sub in ast.walk(node)}
        matching = [(count, keywords) for callee, count, keywords, call in calls
                    if callee in names and id(call) not in own]
        for param, position, default in _defaulted(node, member):
            passes = [count is None or param in keywords
                      or (position is not None and count > position)
                      for count, keywords in matching]
            if not any(passes):
                found[f"{qual}.{param}"] = "never passed"
            elif (isinstance(default, ast.Constant) and default.value is None
                  and _tested_with_is(node, param) and all(passes)):
                found[f"{qual}.{param}"] = "None never left out"
    return found


def test_every_parameter_is_set_by_a_caller():
    findings = {qual: why for qual, why in _parameter_findings().items()
                if qual not in EXEMPT_PARAMETERS}
    assert not findings, f"parameters in src/slicesim that no call needs: {findings}"


def test_parameter_exemptions_are_current():
    assert sorted(EXEMPT_PARAMETERS.keys() - _parameter_findings().keys()) == []
