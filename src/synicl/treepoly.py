"""Polynomial representation of dependency trees and the distance between them.

Each tree maps to a multivariate polynomial over variables x_1..x_d (leaves)
and y_1..y_d (internal nodes), built recursively: a leaf with label l is x_l,
an internal node with label l is y_l plus the product of its children's
polynomials. Like terms are merged, so a polynomial is a set of terms, each an
exponent vector of length 2d plus a positive integer coefficient, stored as
one (n_terms, 2d+1) int64 row array. Two polynomials are compared with a
symmetric nearest-term Manhattan distance over these rows, optionally
weighted per entry so that error labels count more.

The expansion runs over the k labels that occur in the tree. A monomial is
one Python int holding its 2k exponents in fixed-width bit fields, each wide
enough for the tree's node count, which bounds every exponent, so no field
carries into the next. Multiplying two monomials is then adding two ints,
like terms merge as equal dict keys, and the Python-int coefficients stay
exact. The root's monomials are decoded once into the shared 2d layout. A
coefficient of 2**62 or more is refused with `TermBudgetExceeded`, like a
term count past the budget, so every stored polynomial fits int64.

`poly_distance` takes pairwise differences only in the columns where
either polynomial is non-zero: a column where both are 0 adds 0 to every
pair. Unweighted distances are exact integer arithmetic, added as Python
ints so a sum past the int64 range does not wrap. Weighted ones equal the
sum over all 2d+1 entries bit for bit whenever the weighted sums are exact
in float64, as for dyadic weights such as the default 2.0 with entries
below 2**53; other weights (0.3, say) can differ in the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .treebank import DepTree, LabelVocab

DEFAULT_TERM_BUDGET = 200_000

# a coefficient at or past this is refused, which keeps every entry and every
# entry difference of the distance inside int64
_INT64_SAFE_MAX = 2**62
# a product with more term pairs than this is refused, whatever the budget
_HARD_PAIRS_CAP = 40_000_000
# A time bound: a selection query whose term pairs (its term count times the
# summed term counts of its candidates) pass this is not scored by polynomial
# distance (pipeline falls back to the tree kernel). On one Xeon vCPU a term
# pair took ~93 ns unweighted and ~166 ns weighted (91 columns, 16-token
# trees), so the cap allows about 0.4-0.7 s of distance work per query.
QUERY_PAIRS_CAP = 4_000_000
# one block of the distance's |s-t| tensor has at most about this many entries
_BLOCK_ENTRIES = 4_000_000


class TermBudgetExceeded(RuntimeError):
    """Raised when a polynomial passes the term cap or has a coefficient of 2**62 or more."""


class EmptyPolynomial(ValueError):
    pass


class Polynomial:
    """Canonical term set of a tree polynomial.

    `rows` is an (n_terms, 2d+1) int64 array: the exponent vector
    (x-exponents, then y-exponents) followed by the coefficient. A coefficient
    of 2**62 or more raises TermBudgetExceeded.
    """

    __slots__ = ("d", "rows")

    def __init__(self, d: int, exps: np.ndarray, coeffs: Sequence[int]):
        if max(coeffs, default=0) >= _INT64_SAFE_MAX:
            raise TermBudgetExceeded("a coefficient reached 2**62")
        self.d = d
        self.rows = np.empty((len(coeffs), 2 * d + 1), dtype=np.int64)
        self.rows[:, :-1] = exps
        self.rows[:, -1] = coeffs

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __repr__(self) -> str:
        return f"Polynomial(d={self.d}, {len(self)} terms)"


@dataclass
class WeightProfile:
    """Per-entry multipliers for the Manhattan distance (last entry = coefficient)."""

    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if np.any(self.weights <= 0):
            raise ValueError("all weights must be > 0")

    @classmethod
    def error_weighted(cls, vocab: LabelVocab, weight: float = 2.0) -> "WeightProfile":
        """Weight `weight` on x/y entries of the error labels, 1 elsewhere.

        The coefficient entry corresponds to no label and keeps weight 1.
        """
        d = vocab.d
        w = np.ones(2 * d + 1)
        for label_id in vocab.error_label_ids():
            w[label_id] = weight
            w[d + label_id] = weight
        return cls(w)


# ---------------------------------------------------------------------------
# expansion over packed-integer monomials
# ---------------------------------------------------------------------------

def _multiply(a: Dict[int, int], b: Dict[int, int], budget: Optional[int]) -> Dict[int, int]:
    """Distributive product: packed monomials add, coefficients multiply, like terms merge."""
    if len(a) * len(b) > _HARD_PAIRS_CAP:
        raise TermBudgetExceeded(f"product of {len(a)} x {len(b)} terms is too large to expand")
    if len(b) > len(a):
        a, b = b, a  # the longer loop outside: fewer inner-loop set-ups
    out: Dict[int, int] = {}
    get = out.get
    b_items = list(b.items())
    for e1, c1 in a.items():
        for e2, c2 in b_items:
            key = e1 + e2
            out[key] = get(key, 0) + c1 * c2
        if budget is not None and len(out) > budget:
            raise TermBudgetExceeded(f"product exceeded {budget} terms")
    return out


def tree_to_polynomial(
    tree: DepTree, vocab: LabelVocab, budget: Optional[int] = DEFAULT_TERM_BUDGET
) -> Polynomial:
    """Polynomial of the tree's root node; raises TermBudgetExceeded on blow-up."""
    labels = tree.labels
    children: List[List[int]] = [[] for _ in labels]
    root = 0
    for node, head in enumerate(tree.heads):  # token order: the products' term order follows it
        if head:
            children[head - 1].append(node)
        else:
            root = node
    used = sorted(set(labels))
    k = len(used)
    compact = {label: i for i, label in enumerate(used)}
    # no exponent exceeds the node count, so each fits one field of this type
    field = np.min_scalar_type(len(labels)).newbyteorder("<")
    bits = 8 * field.itemsize

    # iterative post-order so deep parse chains cannot hit the recursion limit
    result: Dict[int, Dict[int, int]] = {}
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        kids = children[node]
        if not expanded:
            stack.append((node, True))
            stack.extend((child, False) for child in kids)
            continue
        if not kids:
            result[node] = {1 << (bits * compact[labels[node]]): 1}
            continue
        prod = result.pop(kids[0])
        for child in kids[1:]:
            prod = _multiply(prod, result.pop(child), budget)
        y = 1 << (bits * (k + compact[labels[node]]))
        prod[y] = prod.get(y, 0) + 1
        if budget is not None and len(prod) > budget:
            raise TermBudgetExceeded(f"polynomial exceeded {budget} terms")
        result[node] = prod

    terms = result[root]
    size = 2 * k * field.itemsize
    packed = b"".join(key.to_bytes(size, "little") for key in terms)
    compact_exps = np.frombuffer(packed, dtype=field).reshape(len(terms), 2 * k)
    d = vocab.d
    cols = np.asarray(used, dtype=np.intp)
    exps = np.zeros((len(terms), 2 * d), dtype=np.int64)
    exps[:, cols] = compact_exps[:, :k]
    exps[:, cols + d] = compact_exps[:, k:]
    return Polynomial(d, exps, list(terms.values()))


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------

def _directional_min_sums(
    big: np.ndarray, small: np.ndarray, weights: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise and column-wise minima of the pairwise (weighted) Manhattan matrix."""
    m, n = big.shape[0], small.shape[0]
    width = big.shape[1]
    if weights is None:
        row_min = np.full(m, np.iinfo(np.int64).max, dtype=np.int64)
        col_min = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    else:
        row_min = np.full(m, np.inf)
        col_min = np.full(n, np.inf)
    block = max(1, int((_BLOCK_ENTRIES // width) ** 0.5))
    for i0 in range(0, m, block):
        a = big[i0 : i0 + block]
        for j0 in range(0, n, block):
            b = small[j0 : j0 + block]
            diffs = np.abs(a[:, None, :] - b[None, :, :])
            if weights is None:
                dist = diffs.sum(axis=2)
            else:
                dist = (diffs * weights).sum(axis=2)
            np.minimum(row_min[i0 : i0 + block], dist.min(axis=1), out=row_min[i0 : i0 + block])
            np.minimum(col_min[j0 : j0 + block], dist.min(axis=0), out=col_min[j0 : j0 + block])
    return row_min, col_min


def poly_distance(
    p: Polynomial, q: Polynomial, weights: Optional[WeightProfile] = None
) -> float:
    """Symmetric mean nearest-term Manhattan distance between two term sets.

    Every term vector of one polynomial is matched to its closest term vector
    in the other (entry-weighted L1 over exponents and coefficient); the two
    directional sums are averaged over the total number of terms. Identical
    polynomials have distance exactly 0; the unweighted case is exact integer
    arithmetic.
    """
    if p.d != q.d:
        raise ValueError(f"mismatched label counts: {p.d} != {q.d}")
    if len(p) == 0 or len(q) == 0:
        raise EmptyPolynomial("cannot compute the distance of an empty polynomial")
    w = None
    if weights is not None:
        expected = 2 * p.d + 1
        if weights.weights.shape[0] != expected:
            raise ValueError(f"weight profile has {weights.weights.shape[0]} entries, need {expected}")
        if not np.all(weights.weights == 1.0):
            w = weights.weights
    # a column where both polynomials are 0 adds 0 to every pair
    cols = np.flatnonzero(p.rows.any(axis=0) | q.rows.any(axis=0))
    row_min, col_min = _directional_min_sums(
        p.rows[:, cols], q.rows[:, cols], None if w is None else w[cols]
    )
    if w is None:
        # each minimum fits int64, their sum may not: add them as Python ints
        total: float = float(int(row_min.sum(dtype=object)) + int(col_min.sum(dtype=object)))
    else:
        total = float(row_min.sum() + col_min.sum())
    return total / (len(p) + len(q))
