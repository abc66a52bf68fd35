"""Minimal-size search for one-dimensional covers of F_q.

kind 'radius' asks for K - K = F_q, kind 'center' for K (+) K = F_q with
distinct summands.  Both cover properties are invariant under affine maps
K -> c*K + d (c != 0), so the exact search fixes 0 and 1 in K; that loses
no generality and shrinks the tree.

The exact search reads only the scalar add and sub of a field, so on a
numpy-free ScalarField it loads no numpy.  The greedy search gathers from
the rank arrays of an Fq, and imports numpy itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceededError
from .exact import (
    DEFAULT_NODE_BUDGET,
    EXACT_LIMIT,
    VARIANT_RADIUS,
    VARIANTS,
    circular_lower_bounds,
)
from .scalar import ScalarField


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


def _new_bits(field: ScalarField, kind: str, x: int, chosen: list[int]) -> int:
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


def minimal_circular_exact(field: ScalarField, kind: str, *, limit: int = EXACT_LIMIT,
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


def greedy_circular(field: ScalarField, kind: str, *,
                    node_budget: int = DEFAULT_NODE_BUDGET) -> SearchOutcome:
    """Greedy baseline, on an Fq: repeatedly add the element covering the
    most still-missing values, breaking ties toward the smallest rank.  Each
    step counts its q - |K| candidates as nodes; BudgetExceededError is
    raised before a step would take the count past node_budget.

    gain[x] is the number of distinct uncovered values that x would add
    to the cover of the chosen set K (x - y and y - x for y in K, and
    x - x, for 'radius'; x + y for 'center'); members are held at -1.
    Adding b covers its new values N, and each v in N is subtracted once
    from every x holding it: x in (K + v) | (K - v), or x = v - y.  Then
    b's values are added to every x.  For 'radius' these are x - b and
    b - x, both uncovered or both covered as K - K = -(K - K), and both
    already held exactly when 2x - b is in K; for 'center' it is x + b,
    never already held.  So a step's arrays have q or |N| x |K| entries.
    0 = x - x starts covered: every first pick is rank 0, which covers it."""
    import numpy as np

    _check_kind(kind)
    q = field.q
    field.require_array((q,))  # refuse a q past ARRAY_CAP before allocating
    radius = kind == VARIANT_RADIUS
    ranks = np.arange(q, dtype=np.int64)
    gain = np.zeros(q, dtype=np.int64)
    covered = np.zeros(q, dtype=bool)
    member = np.zeros(q, dtype=bool)
    chosen = np.empty(q, dtype=np.int64)  # K is chosen[:size], in order of choice
    size = 0
    if radius:
        covered[0] = True
        neg = field.neg_arr
        twice = field.add_arrays(ranks, ranks)
        half = np.empty(q, dtype=np.int64)
        half[twice] = ranks
    nodes = 0
    while not covered.all():
        if nodes + q - size > node_budget:
            raise BudgetExceededError(nodes + q - size, node_budget)
        nodes += q - size
        b = int(np.argmax(gain))
        ks = chosen[:size]
        if radius:
            shift = field.sub_arrays(ranks, b)  # x - b
            diffs = shift[ks]
            new = diffs[~covered[diffs]]
            covered[new] = True
            back = neg[new]
            back = back[~covered[back]]
            covered[back] = True
            new = np.concatenate((new, back))
            # rows v and -v of holders (N = -N) list K + v and K - v, so x
            # counts twice its entries, less those where x + v is in K too
            holders = field.add_arrays(np.concatenate((new, twice[new]))[:, None], ks)
            holders, far = holders[:new.size], holders[new.size:]
            gain -= np.bincount(np.concatenate((holders.ravel(), holders[~member[far]])),
                                minlength=q)
            fresh = ~covered
            fresh[half[diffs]] = False  # x - b = (y - b) / 2: already held
            gain += 2 * fresh[shift]
        else:
            shift = field.add_arrays(ranks, b)  # x + b
            new = shift[ks]
            new = new[~covered[new]]
            covered[new] = True
            gain -= np.bincount(field.sub_arrays(new[:, None], ks).ravel(), minlength=q)
            gain += ~covered[shift]
        member[b] = True
        chosen[size] = b
        size += 1
        gain[chosen[:size]] = -1
    return SearchOutcome(q, kind, size, tuple(sorted(chosen[:size].tolist())), nodes, False)
