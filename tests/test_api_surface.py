"""Every function, class and method in ``src/slicesim`` has a caller, and every field a reader.

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
``SimTrace.records`` (loaded once, to append to) and
``TransitionMatrix.mode`` (the name of many parameters read as attributes).

A definition that only the tests call does not belong in the package: the
tests' helpers live in ``tests/oracles.py`` (oracles, the model's definitions
that no command needs, and test drivers) and ``tests/criteria.py`` (the
acceptance criteria's harness).
"""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "slicesim"

# Definitions kept without a caller in src/ or perfbench/, each with its reason.
EXEMPT: dict[str, str] = {}

# Fields kept without a reader in src/ or perfbench/, each with its reason.
EXEMPT_FIELDS: dict[str, str] = {}


def _trees():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    return [ast.parse(path.read_text()) for path in files]


def _references(tree, member):
    """Every attribute name that the tree refers to, and every bare name unless ``member``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Name) and not member:
            yield node.id


def _definitions():
    """(qualified name, short name, node, whether a method) of each top-level def and method."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            yield f"{path.stem}.{node.name}", node.name, node, False
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                        yield f"{path.stem}.{node.name}.{sub.name}", sub.name, sub, True


def _unreferenced():
    trees = _trees()
    refs = {member: Counter(name for tree in trees for name in _references(tree, member))
            for member in (False, True)}
    return {qual for qual, name, node, member in _definitions()
            if refs[member][name] - Counter(_references(node, member))[name] == 0}


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
