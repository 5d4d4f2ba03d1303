"""Admission strategies as per-state preference vectors.

A preference vector is a permutation of {0, 1, ..., N}: queue numbers are
served in the order they appear, and queues listed after the reserve symbol 0
are not served at all.  A strategy assigns one such vector to every
admissible state (one column per admissible-state index).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractViolation
from .slice_model import StateSpace

RESERVE = 0


def validate_vector(entries: Sequence[int], num_types: int) -> str | None:
    """Check one preference vector; returns a violation description or None if valid."""
    entries = list(entries)
    if len(entries) != num_types + 1:
        return f"expected {num_types + 1} entries, got {len(entries)}"
    seen = set()
    for v in entries:
        if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
            return f"entry {v!r} is not an integer"
        if not 0 <= v <= num_types:
            return f"entry {v} outside 0..{num_types}"
        if v in seen:
            return f"duplicate entry {v}"
        seen.add(v)
    return None


def _first_problem(distinct: Iterable[tuple], columns: Sequence[Sequence[int]],
                   num_types: int) -> str | None:
    """Check each distinct column once; a violation names the first column that has it."""
    for col in distinct:
        problem = validate_vector(col, num_types)
        if problem is not None:
            return f"column {[tuple(c) for c in columns].index(col)}: {problem}"
    return None


def validate_matrix(columns: Sequence[Sequence[int]], num_types: int) -> str | None:
    """Check each column of a strategy; returns a violation description or None if valid."""
    return _first_problem(dict.fromkeys(map(tuple, columns)), columns, num_types)


# Largest N with (N + 1) ** (N + 1) < 2 ** 63: a column read as N + 1 digits in
# base N + 1 has an exact 64-bit code.
_MAX_CODED_TYPES = 14


def _intern(columns, num_types: int) -> tuple[Iterable[tuple], tuple[tuple, ...]]:
    """The distinct columns in first-occurrence order, and every column as its distinct tuple.

    An integer array (one column per row) of N + 1 entries a row, with
    N <= ``_MAX_CODED_TYPES`` and every entry in 0..N, is interned with one
    ``np.unique`` over the columns' codes in base N + 1, exact in that range;
    any other input column by column.
    """
    if (isinstance(columns, np.ndarray) and columns.ndim == 2
            and columns.shape[1] == num_types + 1 and np.issubdtype(columns.dtype, np.integer)
            and num_types <= _MAX_CODED_TYPES
            and 0 <= columns.min(initial=0) and columns.max(initial=0) <= num_types):
        # in the narrowest unsigned type, whose stable sort is a radix sort up to 16 bits
        radix = np.min_scalar_type((num_types + 1) ** (num_types + 1) - 1)
        digits = (num_types + 1) ** np.arange(num_types, -1, -1, dtype=radix)
        codes = columns.astype(radix) @ digits
        _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        by_code = list(map(tuple, columns[first].tolist()))
        return ([by_code[i] for i in np.argsort(first).tolist()],
                tuple(map(by_code.__getitem__, inverse.tolist())))
    shared: dict[tuple, tuple] = {}  # one tuple per distinct column
    rows = columns.tolist() if isinstance(columns, np.ndarray) else columns
    return shared, tuple([shared.setdefault(c, c) for c in map(tuple, rows)])


@dataclass(frozen=True)
class PreferenceMatrix:
    """One preference vector per admissible state, indexed like the state space.

    Columns are interned: equal columns share one tuple, and each distinct
    column is checked once.  A column equal to an earlier one is stored as
    that one, so ``(1.0, 0)`` after ``(1, 0)`` is kept as ``(1, 0)``.  An
    integer array (one column per row) is interned in one pass where its
    columns have exact codes (see ``_intern``).
    """

    columns: tuple[tuple[int, ...], ...]
    num_types: int

    def __post_init__(self) -> None:
        distinct, columns = _intern(self.columns, self.num_types)
        object.__setattr__(self, "columns", columns)
        problem = _first_problem(distinct, columns, self.num_types)
        if problem is not None:
            raise ContractViolation(f"invalid preference matrix: {problem}")

    @property
    def num_columns(self) -> int:
        return len(self.columns)


def check_columns(strategy: PreferenceMatrix, space: StateSpace) -> None:
    """Raise ``ContractViolation`` unless ``strategy`` has one column per admissible state."""
    if strategy.num_columns != space.num_admissible:
        raise ContractViolation(f"strategy has {strategy.num_columns} columns, "
                                f"admissibility region has {space.num_admissible} states")


def constant_strategy(space: StateSpace, vector: Sequence[int]) -> PreferenceMatrix:
    """The strategy applying the same preference vector in every admissible state."""
    return PreferenceMatrix(columns=(tuple(vector),) * space.num_admissible,
                            num_types=space.model.num_types)


def naive_strategy(space: StateSpace, kind: str = "prefer-type-1") -> PreferenceMatrix:
    """The built-in constant strategy ``prefer-type-k``: type k first, the remaining types
    in ascending order, and the reserve symbol last."""
    n, k = space.model.num_types, kind.removeprefix("prefer-type-")
    if k == kind or not k.isdecimal():
        raise ContractViolation(f"unknown naive strategy kind {kind!r}")
    if not 1 <= (k := int(k)) <= n:
        raise ContractViolation(f"prefer-type-{k} needs a type in 1..{n}")
    return constant_strategy(space, [k] + [t for t in range(1, n + 1) if t != k] + [RESERVE])


def random_strategy(space: StateSpace, seed: int) -> PreferenceMatrix:
    """A strategy with one independent uniform random preference vector per column.

    Deterministic for a given seed: per-column Fisher-Yates shuffles driven by
    PCG64, with the draws vectorised and bit-identical to drawing column by column.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    n, k = space.model.num_types, space.num_admissible
    draws = rng.integers(0, np.tile(np.arange(n + 1, 1, -1), k)).reshape(k, n)
    columns = np.tile(np.arange(n + 1), (k, 1))
    rows = np.arange(k)
    for i in range(n, 0, -1):
        j = draws[:, n - i]
        columns[:, i], columns[rows, j] = columns[rows, j], columns[:, i].copy()
    return PreferenceMatrix(columns=columns, num_types=n)


def to_text(matrix: PreferenceMatrix) -> str:
    """Serialize as a plain text table: one column per line, state index first.

    Each distinct column is formatted once.
    """
    shown = {col: " ".join(map(str, col)) for col in set(matrix.columns)}
    return "\n".join([f"{j} {shown[col]}" for j, col in enumerate(matrix.columns)]) + "\n"


class TableLineError(ContractViolation):
    """A malformed line of a strategy table: its 1-based number and the problem."""

    def __init__(self, line: int, problem: str) -> None:
        super().__init__(f"strategy table line {line}: {problem}")
        self.line, self.problem = line, problem


def from_text(text: str, num_types: int) -> PreferenceMatrix:
    """Parse the plain text table produced by ``to_text``.

    A malformed line raises ``TableLineError``; a well-formed table that is
    no valid strategy, ``ContractViolation``.
    """
    columns: list[tuple[int, ...]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            values = [int(p) for p in parts]
        except ValueError:
            raise TableLineError(lineno, "non-integer entry") from None
        if len(values) != num_types + 2:
            raise TableLineError(lineno, f"expected index plus {num_types + 1} entries")
        if values[0] != len(columns):
            raise TableLineError(lineno, f"expected state index {len(columns)}, got {values[0]}")
        columns.append(tuple(values[1:]))
    problem = validate_matrix(columns, num_types)
    if problem is not None:
        raise ContractViolation(f"invalid strategy table: {problem}")
    return PreferenceMatrix(columns=tuple(columns), num_types=num_types)
