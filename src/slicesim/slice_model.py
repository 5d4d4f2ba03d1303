"""Resource pool, slice types, and the finite state machine they induce.

A model is a static pool of M resources plus N slice types, each type
consuming a fixed resource bundle per active slice.  The set of slice-count
vectors the pool can hold (the feasibility space) is finite; the subset from
which at least one more slice of some type could be accepted is the
admissibility region.  States are indexed densely with admissible states
first, so the two index maps agree on the admissibility region.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ContractViolation, StateSpaceTooLarge

# Relative tolerance on the resource inequality, guarding decimal cost values.
FEASIBILITY_REL_TOL = 1e-9

#: Cap on the number of enumerated states, read by each ``enumerate_state_space`` call.
DEFAULT_STATE_CAP = 10**6

#: Sentinel meaning "balking disabled" for a slice type.
BALKING_DISABLED = None


@dataclass(frozen=True)
class SliceType:
    """Per-type demand and behaviour parameters.

    Rates are per unit time.  ``reneging_rate == 0`` disables reneging for
    the type; ``balking_willingness is None`` disables balking.
    """

    arrival_rate: float
    release_rate: float
    utility_rate: float = 0.0
    reneging_rate: float = 0.0
    balking_willingness: float | None = BALKING_DISABLED

    def __post_init__(self) -> None:
        if self.arrival_rate < 0:
            raise ContractViolation(f"arrival_rate must be >= 0, got {self.arrival_rate}")
        if self.release_rate <= 0:
            raise ContractViolation(f"release_rate must be > 0, got {self.release_rate}")
        if self.utility_rate < 0:
            raise ContractViolation(f"utility_rate must be >= 0, got {self.utility_rate}")
        if self.reneging_rate < 0:
            raise ContractViolation(f"reneging_rate must be >= 0, got {self.reneging_rate}")
        b = self.balking_willingness
        if b is not None and not 0.0 <= b <= 1.0:
            raise ContractViolation(f"balking_willingness must lie in [0, 1], got {b}")


@dataclass(frozen=True)
class ResourceModel:
    """Static resource pool with per-type cost bundles.

    ``costs[n]`` is the bundle (length M) consumed by one active slice of
    type ``n + 1``; the bundles are the columns of the cost matrix.
    """

    pool: tuple[float, ...]
    costs: tuple[tuple[float, ...], ...]
    types: tuple[SliceType, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pool", tuple(float(r) for r in self.pool))
        object.__setattr__(self, "costs", tuple(tuple(float(c) for c in col) for col in self.costs))
        object.__setattr__(self, "types", tuple(self.types))
        if not self.pool:
            raise ContractViolation("resource pool must have at least one resource")
        if any(r < 0 for r in self.pool):
            raise ContractViolation("resource pool entries must be >= 0")
        if len(self.costs) != len(self.types):
            raise ContractViolation("need one cost bundle per slice type")
        if not self.types:
            raise ContractViolation("need at least one slice type")
        for n, col in enumerate(self.costs, start=1):
            if len(col) != len(self.pool):
                raise ContractViolation(f"cost bundle of type {n} has wrong length")
            if any(c < 0 for c in col):
                raise ContractViolation(f"cost bundle of type {n} has negative entries")
            if any(c > r + FEASIBILITY_REL_TOL * max(1.0, r) for c, r in zip(col, self.pool)):
                raise ContractViolation(
                    f"type {n} does not fit an empty pool (cost bundle exceeds pool)"
                )

    @property
    def num_resources(self) -> int:
        return len(self.pool)

    @property
    def num_types(self) -> int:
        return len(self.types)

    @property
    def arrival_rates(self) -> tuple[float, ...]:
        return tuple(t.arrival_rate for t in self.types)

    @property
    def release_rates(self) -> tuple[float, ...]:
        return tuple(t.release_rate for t in self.types)

    @property
    def utility_rates(self) -> tuple[float, ...]:
        return tuple(t.utility_rate for t in self.types)


SystemState = tuple[int, ...]


def _count(v) -> int | None:
    """``v`` as a slice count if it is a non-negative integral number, else None."""
    try:
        iv = int(v)
    except (TypeError, ValueError, OverflowError):  # None, nan, inf, ...
        return None
    return iv if iv == v and iv >= 0 else None


def _check_state(model: ResourceModel, s: Sequence[int]) -> SystemState:
    if len(s) != model.num_types:
        raise ContractViolation(
            f"state has {len(s)} entries, model has {model.num_types} slice types"
        )
    out = tuple(map(_count, s))
    if None in out:
        raise ContractViolation(
            f"slice counts must be non-negative integers, got {s[out.index(None)]!r}")
    return out


def assigned_resources(model: ResourceModel, s: Sequence[int]) -> np.ndarray:
    """Resources consumed by the active-slice vector ``s`` (cost matrix times s)."""
    s = _check_state(model, s)
    assigned = np.zeros(model.num_resources)
    for count, col in zip(s, model.costs):
        if count:
            assigned += count * np.asarray(col)
    return assigned


def is_feasible(model: ResourceModel, s: Sequence[int]) -> bool:
    """Whether the pool supports ``s``: assigned resources within the pool on every axis."""
    pool = np.asarray(model.pool)
    excess = assigned_resources(model, s) - pool
    return not np.any(excess > FEASIBILITY_REL_TOL * np.maximum(1.0, pool))


@dataclass
class StateSpace:
    """Enumerated feasibility space with dense indices, admissible states first.

    Indices are 0-based; a state is admissible iff its index is below
    ``num_admissible``.  ``counts`` is the one record of what each state
    holds: a read-only integer array, one row of slice counts per state in
    index order.  ``states`` is the same rows as int tuples, a view built on
    first read.  The transition tables are flat ``array('q')`` buffers, entry
    ``index * num_types + n - 1`` for a type-n move (-1: infeasible / invalid):
    the event loop reads one entry at a time on every serving pass and gets a
    plain int, and the chain reads them whole as zero-copy int64 views.
    ``index_of`` walks the increment table from the empty state (index 0).
    """

    model: ResourceModel
    counts: np.ndarray = field(repr=False, compare=False)
    num_admissible: int
    num_types: int
    _increment: array = field(repr=False)
    _release: array = field(repr=False)

    def __len__(self) -> int:
        return len(self.counts)

    @cached_property
    def states(self) -> tuple[SystemState, ...]:
        return tuple(map(tuple, self.counts.tolist()))

    def index_of(self, s: Sequence[int]) -> int:
        """Index of ``s``, reached from index 0 by s[0] type-1 increments, s[1] of type 2..."""
        state, width, index = tuple(s), self.num_types, 0
        counts = tuple(map(_count, state))
        if len(state) == width and None not in counts:
            for n in (n for n, count in enumerate(counts) for _ in range(count)):
                index = self._increment[index * width + n]
                if index < 0:
                    break
            else:
                return index
        raise ContractViolation(f"state {state} is not in the feasibility space")

    def state_at(self, index: int) -> SystemState:
        return tuple(self.counts[index].tolist())

    def increment_index(self, index: int, n: int) -> int:
        """Index of ``state + unit increment of type n`` (n >= 1), -1 if infeasible."""
        return self._increment[index * self.num_types + n - 1]

    def release_index(self, index: int, n: int) -> int:
        """Index of ``state - unit increment of type n``, -1 if no such slice is active."""
        return self._release[index * self.num_types + n - 1]


def enumerate_state_space(model: ResourceModel) -> StateSpace:
    """Exhaustively enumerate the feasibility space and extract the admissibility region.

    States are ordered lexicographically within each group, admissible states
    first, so that the full-space index map agrees with the admissible-region
    index map on the admissibility region.  Feasible prefixes grow one type at
    a time, as arrays, into a prefix tree.  Raises ``StateSpaceTooLarge`` when
    more than ``DEFAULT_STATE_CAP`` states would be enumerated, before allocating them.
    """
    pool = np.asarray(model.pool)
    tol = FEASIBILITY_REL_TOL * np.maximum(1.0, pool)
    rows = np.zeros((1, 0), dtype=np.int64)
    path = np.zeros((1, 1), dtype=np.int64)  # each prefix's nodes in the prefix tree, root first
    used = np.zeros((1, len(pool)))
    levels = []  # per type and per parent node: its first child and its largest count
    for n, col in enumerate(map(np.asarray, model.costs), start=1):
        pos = col > 0
        if not pos.any():
            raise StateSpaceTooLarge(f"type {n} consumes no resources; the space is unbounded")
        bound = ((pool[pos] + tol[pos]) // col[pos]).min()
        # the float test accumulates type by type, as a depth-first walk would;
        # it is monotone in the count, so each prefix's headroom ends at its
        # largest fitting count: overestimate that by one, then step down to
        # the exact boundary
        fits = lambda c: ~np.any((used + c[:, None] * col) - pool > tol, axis=1)
        top = np.floor((pool[pos] + tol[pos] - used[:, pos]) / col[pos]).min(axis=1) + 1
        top = np.clip(top, 0, bound).astype(np.int64)
        while not (ok := fits(top)).all():
            top -= ~ok
        size = int(top.sum()) + len(top)
        if size > DEFAULT_STATE_CAP:
            raise StateSpaceTooLarge(f"state space exceeds the cap of {DEFAULT_STATE_CAP} states")
        start = np.cumsum(top + 1) - (top + 1)
        parent = np.repeat(np.arange(len(top)), top + 1)
        count = np.arange(size) - start[parent]
        levels.append((start, top))
        rows = np.column_stack((rows[parent], count))
        path = np.column_stack((path[parent], np.arange(size)))
        used = used[parent] + count[:, None] * col

    # Neighbours by walking the prefix tree, which orders the rows.  A bump of
    # type m is the next sibling of the state's type-m prefix, if the parent
    # has room; below it the same counts are followed while they still fit.
    size, n_types = rows.shape
    increment, release = np.full((2, size, n_types), -1)
    for m, (_, top) in enumerate(levels):
        node = path[:, m + 1] + 1
        hit = rows[:, m] < top[path[:, m]]
        for k in range(m + 1, n_types):
            node = np.where(hit, node, 0)
            start, top = levels[k]
            hit &= rows[:, k] <= top[node]
            node = start[node] + rows[:, k]
        hit = np.flatnonzero(hit)
        increment[hit, m] = node[hit]
        release[node[hit], m] = hit

    admissible = (increment >= 0).any(axis=1)
    order = np.concatenate((np.flatnonzero(admissible), np.flatnonzero(~admissible)))
    new_index = np.full(size + 1, -1, dtype=np.int64)  # the last entry maps -1 to itself
    new_index[order] = np.arange(size)
    up, down = (array("q", new_index[table[order]].tobytes()) for table in (increment, release))
    counts = rows[order]
    counts.flags.writeable = False
    return StateSpace(
        model=model,
        counts=counts,
        num_admissible=int(admissible.sum()),
        num_types=n_types,
        _increment=up,
        _release=down,
    )
