"""Polynomial representation of dependency trees and the distance between them.

Each tree maps to a multivariate polynomial over variables x_1..x_d (leaves)
and y_1..y_d (internal nodes), built recursively: a leaf with label l is x_l,
an internal node with label l is y_l plus the product of its children's
polynomials. Like terms are merged, so a polynomial is a set of terms, each an
exponent vector of length 2d plus a positive integer coefficient: 2d+1
entries. Two polynomials are compared with a symmetric nearest-term Manhattan
distance over those entries, optionally weighted per entry so that error
labels count more.

A polynomial stores only its support, the entries where some term is
non-zero: the x-entries of its leaf labels, the y-entries of its internal
labels and the coefficient (a tree with d = 45 labels uses about 10 of the 91
entries). Its `rows` hold those columns in ascending entry id, the
coefficient last among them, then one all-zero column; `slot` maps every
entry id to its column, an absent entry to the zero column. So
`rows[:, slot]` is the full (n_terms, 2d+1) row array, and `rows[:,
slot[cols]]` is the same copy as a full array's `[:, cols]`.

The expansion runs over the support. A monomial is one Python int holding
its exponents of the support's entries in fixed-width bit fields, each wide
enough for the tree's node count, which bounds every exponent, so no field
carries into the next. Multiplying two monomials is then adding two ints,
like terms merge as equal dict keys, and the Python-int coefficients stay
exact. The root's monomials are decoded once, straight into the stored
columns. A coefficient of 2**62 or more is refused with
`TermBudgetExceeded`, like a term count past the budget, so every stored
polynomial fits int64.

A weight profile decides once whether every weight is 1, so a distance call
does no per-pair set-up beyond the union of the two supports.
`poly_distance` takes pairwise differences only in those columns: a column
where both are 0 adds 0 to every pair. Each side is gathered into the
union's columns through its slot map, with the fancy-index copy a full row
array would take, so the copies have the values, layout and strides of the
full array's columns, and every distance keeps the bits it has over full
rows. A pair whose |s-t| tensor fits in one square block of about
`_BLOCK_ENTRIES` entries takes it in one piece, a larger one block by block.
Unweighted distances are exact integer arithmetic, added as Python ints so a
sum past the int64 range does not wrap. Weighted ones equal the sum over all
2d+1 entries bit for bit whenever the weighted sums are exact in float64, as
for dyadic weights such as the default 2.0 with entries below 2**53. With
other weights (0.3, say) the order of the additions, which numpy picks from
the layout of the column copies and the shape of a block, can show in the
last bits; the distance makes them as it always has, so a value keeps its
bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
# distance (pipeline falls back to the tree kernel). On one vCPU of a 2-vCPU
# Xeon VM a term pair took ~125-150 ns unweighted and ~190-225 ns weighted
# (91 columns; the 20 queries with the most term pairs, 0.06-2.8M each, of
# 16- and 25-token corpora against their dense top 100), so the cap allows
# about 0.5-0.9 s of distance work per query.
QUERY_PAIRS_CAP = 4_000_000
# one block of the distance's |s-t| tensor has at most about this many entries
_BLOCK_ENTRIES = 4_000_000


class TermBudgetExceeded(RuntimeError):
    """Raised when a polynomial passes the term cap or has a coefficient of 2**62 or more."""


class EmptyPolynomial(ValueError):
    pass


class Polynomial:
    """Canonical term set of a tree polynomial, stored over its support.

    `columns` are the exponent entries (x-entries 0..d-1, then y-entries
    d..2d-1) where some term is non-zero, in ascending order, and `exps` the
    (n_terms, len(columns)) exponents in those entries. `rows` is an
    (n_terms, len(columns) + 2) int64 array: those exponents, the
    coefficient, and a column of zeros. `support` is the (2d+1,) mask of the
    stored entries (the coefficient always among them), and `slot` maps each
    of the 2d+1 entries to its column of `rows`, an absent entry to the zero
    column, so `rows[:, slot]` is the full row array. A coefficient of 2**62
    or more raises TermBudgetExceeded. All three arrays are read-only.
    """

    __slots__ = ("d", "rows", "support", "slot")

    def __init__(self, d: int, columns: Sequence[int], exps: np.ndarray, coeffs: Sequence[int]):
        if max(coeffs, default=0) >= _INT64_SAFE_MAX:
            raise TermBudgetExceeded("a coefficient reached 2**62")
        self.d = d
        s = len(columns)
        self.rows = np.empty((len(coeffs), s + 2), dtype=np.int64)
        self.rows[:, :s] = exps
        self.rows[:, s] = coeffs
        self.rows[:, s + 1] = 0
        entries = [*columns, 2 * d]
        self.support = np.zeros(2 * d + 1, dtype=bool)
        self.support[entries] = True
        self.slot = np.full(2 * d + 1, s + 1, dtype=np.min_scalar_type(s + 1))
        self.slot[entries] = np.arange(s + 1)
        self.rows.flags.writeable = self.support.flags.writeable = False
        self.slot.flags.writeable = False

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __repr__(self) -> str:
        return f"Polynomial(d={self.d}, {len(self)} terms)"


@dataclass
class WeightProfile:
    """Per-entry multipliers for the Manhattan distance (last entry = coefficient).

    `weights` is read-only, and `uniform` (every weight 1) is decided once here.
    """

    weights: np.ndarray
    uniform: bool = field(init=False)

    def __post_init__(self):
        self.weights = np.array(self.weights, dtype=np.float64)
        if not (np.isfinite(self.weights).all() and (self.weights > 0).all()):
            raise ValueError("all weights must be finite numbers > 0")
        self.weights.flags.writeable = False
        self.uniform = bool((self.weights == 1.0).all())

    @classmethod
    def error_weighted(cls, vocab: LabelVocab, weight: float = 2.0) -> "WeightProfile":
        """Weight `weight` on x/y entries of the error labels, 1 elsewhere.

        The coefficient entry corresponds to no label and keeps weight 1.
        """
        d = len(vocab)
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
    # the support: x-entries of the leaf labels, then y-entries of the
    # internal labels, each in ascending label id, so ascending entry ids
    d = len(vocab)
    leaf_labels = sorted({label for label, kids in zip(labels, children) if not kids})
    internal_labels = sorted({label for label, kids in zip(labels, children) if kids})
    x_field = {label: i for i, label in enumerate(leaf_labels)}
    y_field = {label: len(leaf_labels) + i for i, label in enumerate(internal_labels)}
    columns = leaf_labels + [d + label for label in internal_labels]
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
            result[node] = {1 << (bits * x_field[labels[node]]): 1}
            continue
        prod = result.pop(kids[0])
        for child in kids[1:]:
            prod = _multiply(prod, result.pop(child), budget)
        y = 1 << (bits * y_field[labels[node]])
        prod[y] = prod.get(y, 0) + 1
        if budget is not None and len(prod) > budget:
            raise TermBudgetExceeded(f"polynomial exceeded {budget} terms")
        result[node] = prod

    terms = result[root]
    size = len(columns) * field.itemsize
    packed = b"".join(key.to_bytes(size, "little") for key in terms)
    exps = np.frombuffer(packed, dtype=field).reshape(len(terms), len(columns))
    return Polynomial(d, columns, exps, list(terms.values()))


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------

def _distances(a: np.ndarray, b: np.ndarray, weights: Optional[np.ndarray]) -> np.ndarray:
    """The (weighted) Manhattan distance of every row of `a` to every row of `b`."""
    diffs = np.abs(a[:, None, :] - b[None, :, :])
    return diffs.sum(axis=2) if weights is None else (diffs * weights).sum(axis=2)


def _directional_mins(
    a: np.ndarray, b: np.ndarray, weights: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise and column-wise minima of the pairwise (weighted) Manhattan matrix.

    The |s-t| tensor is taken in square blocks of at most about
    `_BLOCK_ENTRIES` entries; a pair that fits in one block takes it in one
    piece, with no running minima to merge.
    """
    m, n, width = a.shape[0], b.shape[0], a.shape[1]
    block = max(1, int((_BLOCK_ENTRIES // width) ** 0.5))
    if m <= block and n <= block:
        dist = _distances(a, b, weights)
        return dist.min(axis=1), dist.min(axis=0)
    if weights is None:
        row_min = np.full(m, np.iinfo(np.int64).max, dtype=np.int64)
        col_min = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    else:
        row_min = np.full(m, np.inf)
        col_min = np.full(n, np.inf)
    for i0 in range(0, m, block):
        for j0 in range(0, n, block):
            dist = _distances(a[i0 : i0 + block], b[j0 : j0 + block], weights)
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
        if not weights.uniform:
            w = weights.weights
    # a column where both polynomials are 0 adds 0 to every pair; each side's
    # entries of the union come through its slot map (an absent one from its
    # zero column), copied by fancy indexing (Fortran order), not `take`,
    # because their layout sets numpy's order of additions in a weighted sum
    cols = np.flatnonzero(p.support | q.support)
    row_min, col_min = _directional_mins(
        p.rows[:, p.slot[cols]], q.rows[:, q.slot[cols]], None if w is None else w[cols]
    )
    if w is None:
        # each minimum fits int64, their sum may not: add them as Python ints
        total: float = float(sum(row_min.tolist()) + sum(col_min.tolist()))
    else:
        total = float(row_min.sum() + col_min.sum())
    return total / (len(p) + len(q))
