"""Minimal-size search for one-dimensional covers of F_q.

kind 'radius' asks for K - K = F_q, kind 'center' for K (+) K = F_q with
distinct summands.  Both cover properties are invariant under affine maps
K -> c*K + d (c != 0), so the exact search fixes 0 and 1 in K; that loses
no generality and shrinks the tree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError
from .exact import (
    DEFAULT_NODE_BUDGET,
    EXACT_LIMIT,
    VARIANT_RADIUS,
    VARIANTS,
    circular_lower_bounds,
)
from .field import Fq


@dataclass(frozen=True)
class SearchOutcome:
    q: int
    kind: str
    size: int
    example: tuple[int, ...]
    nodes: int
    certified: bool

    def to_json_dict(self) -> dict:
        key = "minimalSize" if self.certified else "foundSize"
        return {
            "q": self.q,
            "kind": self.kind,
            key: self.size,
            "exampleSet": list(self.example),
            "nodesExplored": self.nodes,
            "certified": self.certified,
        }


def _check_kind(kind: str) -> None:
    if kind not in VARIANTS:
        raise ValueError(f"kind must be one of {VARIANTS}")


def _new_bits(field: Fq, kind: str, x: int, chosen: list[int]) -> int:
    """Bitmask of cover values gained by adding x to the chosen set."""
    bits = 0
    if kind == VARIANT_RADIUS:
        bits |= 1  # x - x
        for y in chosen:
            bits |= (1 << field.sub(x, y)) | (1 << field.sub(y, x))
    else:
        for y in chosen:
            bits |= 1 << field.add(x, y)
    return bits


def _capacity(kind: str, have: int, slots: int) -> int:
    """Upper bound on the number of cover values that adding `slots` more
    elements to a set of size `have` can contribute."""
    if kind == VARIANT_RADIUS:
        return 2 * slots * have + slots * (slots - 1)
    return slots * have + slots * (slots - 1) // 2


def minimal_circular_exact(field: Fq, kind: str, *, limit: int = EXACT_LIMIT,
                           node_budget: int = DEFAULT_NODE_BUDGET) -> SearchOutcome:
    """Exact minimum cover size with a witness set, by depth-first search
    over sets containing {0, 1}, increasing the candidate size from the
    lower bound until a cover appears.  Deterministic: the returned set is
    the first found in lexicographic rank order."""
    _check_kind(kind)
    q = field.q
    if q > limit:
        raise BudgetExceededError(q, limit)
    full = (1 << q) - 1
    lower = circular_lower_bounds(q)[0 if kind == VARIANT_RADIUS else 1]
    base = [0, 1]
    base_cov = _new_bits(field, kind, 0, []) | _new_bits(field, kind, 1, [0])
    nodes = 0

    def extend(chosen: list[int], covered: int, start: int, target: int):
        nonlocal nodes
        slots = target - len(chosen)
        if slots == 0:
            return list(chosen) if covered == full else None
        if bin(covered).count("1") + _capacity(kind, len(chosen), slots) < q:
            return None
        for x in range(start, q - slots + 1):
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceededError(nodes, node_budget)
            chosen.append(x)
            found = extend(chosen, covered | _new_bits(field, kind, x, chosen[:-1]),
                           x + 1, target)
            chosen.pop()
            if found is not None:
                return found
        return None

    for s in range(max(lower, 2), q + 1):
        found = extend(base, base_cov, 2, s)
        if found is not None:
            return SearchOutcome(q, kind, s, tuple(sorted(found)), nodes, True)
    raise RuntimeError("no cover found up to size q")  # unreachable for odd q >= 3


def greedy_circular(field: Fq, kind: str) -> SearchOutcome:
    """Greedy baseline: repeatedly add the element covering the most
    still-missing values, breaking ties toward the smallest rank.

    Every candidate's gain is computed at once: row x of the value table
    holds the cover values x would add (x - y and y - x, or x + y, for each
    chosen y, and x - x = 0 for 'radius'), so the gain is the number of
    distinct uncovered values in the row.  Memory is O(q * |chosen|)."""
    _check_kind(kind)
    q = field.q
    ranks = np.arange(q, dtype=np.int64)
    table = np.zeros((q, 1 if kind == VARIANT_RADIUS else 0), dtype=np.int64)
    covered = np.zeros(q, dtype=bool)
    member = np.zeros(q, dtype=bool)
    chosen: list[int] = []
    nodes = 0
    while not covered.all():
        candidates = np.flatnonzero(~member)
        nodes += candidates.size
        values = np.sort(table[candidates], axis=1)
        new = ~covered[values]
        new[:, 1:] &= values[:, 1:] != values[:, :-1]
        best = int(candidates[np.argmax(new.sum(axis=1))])
        covered[table[best]] = True
        member[best] = True
        chosen.append(best)
        if kind == VARIANT_RADIUS:
            cols = [field.sub_arrays(ranks, best), field.sub_arrays(best, ranks)]
        else:
            cols = [field.add_arrays(ranks, best)]
        table = np.column_stack([table, *cols])
    return SearchOutcome(q, kind, len(chosen), tuple(sorted(chosen)), nodes, False)
