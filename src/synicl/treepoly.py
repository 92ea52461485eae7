"""Polynomial representation of dependency trees and the distance between them.

Each tree maps to a multivariate polynomial over variables x_1..x_d (leaves)
and y_1..y_d (internal nodes), built recursively: a leaf with label l is x_l,
an internal node with label l is y_l plus the product of its children's
polynomials. A polynomial is kept as a canonical set of terms (like terms
merged), each term being an exponent vector of length 2d plus an integer
coefficient. Two polynomials are compared with a symmetric nearest-term
Manhattan distance over the (2d+1)-entry term vectors, optionally weighted
per entry so that error labels count more.

Term sets are stored either as an exponent-tuple -> coefficient dict (small
polynomials) or as int32/int64 arrays (large ones); products switch to the
array kernel once the pair count makes Python dicts too slow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .treebank import DepTree, LabelVocab

DEFAULT_TERM_BUDGET = 200_000

# keep int64 Manhattan arithmetic safely away from overflow
_INT64_SAFE_MAX = 2**62
# products with at most this many term pairs use the dict kernel
_DICT_PAIRS_MAX = 64
# cap on broadcast cells per product chunk (memory bound)
_MAX_PRODUCT_CELLS = 50_000_000
# a product this large cannot realistically merge below any sane budget
_HARD_PAIRS_CAP = 40_000_000


class TermBudgetExceeded(RuntimeError):
    """Raised when a polynomial expansion passes the configured term cap."""


class EmptyPolynomial(ValueError):
    pass


class Polynomial:
    """Canonical term set of a tree polynomial.

    `terms` maps exponent vectors (length 2d: x-exponents then y-exponents)
    to positive integer coefficients; it is materialized lazily when the
    polynomial was produced by the array kernel.
    """

    __slots__ = ("d", "_terms", "_exps", "_coeffs", "_matrix")

    def __init__(
        self,
        d: int,
        terms: Optional[Dict[Tuple[int, ...], int]] = None,
        *,
        exps: Optional[np.ndarray] = None,
        coeffs: Optional[np.ndarray] = None,
    ):
        if terms is None and exps is None:
            raise ValueError("need terms or exponent arrays")
        self.d = d
        self._terms = dict(terms) if terms is not None else None
        self._exps = exps
        self._coeffs = coeffs
        self._matrix: Optional[np.ndarray] = None

    @property
    def terms(self) -> Dict[Tuple[int, ...], int]:
        if self._terms is None:
            self._terms = {
                tuple(int(v) for v in row): int(c)
                for row, c in zip(self._exps, self._coeffs)
            }
        return self._terms

    def __len__(self) -> int:
        if self._coeffs is not None:
            return len(self._coeffs)
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.d == other.d and self.terms == other.terms

    def __repr__(self) -> str:
        return f"Polynomial(d={self.d}, {len(self)} terms)"

    def matrix(self) -> np.ndarray:
        """Terms as an (n_terms, 2d+1) int64 array: exponents then coefficient."""
        if self._matrix is None:
            width = 2 * self.d + 1
            if self._exps is not None:
                rows = np.empty((len(self._coeffs), width), dtype=np.int64)
                rows[:, :-1] = self._exps
                rows[:, -1] = self._coeffs
            else:
                if max(self._terms.values(), default=0) >= _INT64_SAFE_MAX:
                    raise OverflowError("coefficient too large for int64 distance arithmetic")
                rows = np.empty((len(self._terms), width), dtype=np.int64)
                for i, (exps, coeff) in enumerate(self._terms.items()):
                    rows[i, :-1] = exps
                    rows[i, -1] = coeff
            self._matrix = rows
        return self._matrix


@dataclass
class WeightProfile:
    """Per-entry multipliers for the Manhattan distance (last entry = coefficient)."""

    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if np.any(self.weights <= 0):
            raise ValueError("all weights must be > 0")

    @classmethod
    def ones(cls, d: int) -> "WeightProfile":
        return cls(np.ones(2 * d + 1))

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
# multiplication kernels: dict for small products, merged arrays for large
# ---------------------------------------------------------------------------

def _multiply_dicts(
    ta: Dict[Tuple[int, ...], int],
    tb: Dict[Tuple[int, ...], int],
    budget: Optional[int],
) -> Dict[Tuple[int, ...], int]:
    from operator import add

    out: Dict[Tuple[int, ...], int] = {}
    for e1, c1 in ta.items():
        for e2, c2 in tb.items():
            key = tuple(map(add, e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
        if budget is not None and len(out) > budget:
            raise TermBudgetExceeded(f"product exceeded {budget} terms")
    return out


def _dict_to_arrays(terms: Dict[Tuple[int, ...], int]) -> Tuple[np.ndarray, np.ndarray]:
    exps = np.array(list(terms.keys()), dtype=np.int32)
    coeffs = np.fromiter(terms.values(), dtype=np.int64, count=len(terms))
    return exps, coeffs


def _arrays_to_dict(exps: np.ndarray, coeffs: np.ndarray) -> Dict[Tuple[int, ...], int]:
    return {tuple(int(v) for v in row): int(c) for row, c in zip(exps, coeffs)}


_HASH_VECTORS: Dict[int, np.ndarray] = {}


def _hash_vector(width: int) -> np.ndarray:
    vec = _HASH_VECTORS.get(width)
    if vec is None:
        vec = np.random.default_rng(0xC0FFEE ^ width).integers(
            1, 2**62, size=width, dtype=np.int64
        ) | 1
        _HASH_VECTORS[width] = vec
    return vec


def _merge_rows(exps: np.ndarray, coeffs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Merge equal exponent rows, summing coefficients.

    Rows are grouped by sorting on a random int64 projection (5x faster than
    np.unique(axis=0)); an exact adjacent-row check detects the astronomically
    rare hash collision and falls back to the slow exact path.
    """
    if len(coeffs) == 1:
        return exps, coeffs
    with np.errstate(over="ignore"):
        hashes = exps.astype(np.int64) @ _hash_vector(exps.shape[1])
    order = np.argsort(hashes, kind="stable")
    sorted_exps = exps[order]
    same_hash = hashes[order][1:] == hashes[order][:-1]
    same_row = (sorted_exps[1:] == sorted_exps[:-1]).all(axis=1)
    if np.any(same_hash & ~same_row):
        # differing rows collided in the projection: exact but slower merge
        uniq, inverse = np.unique(exps, axis=0, return_inverse=True)
        merged = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(merged, inverse, coeffs)
        return uniq, merged
    boundaries = np.concatenate([[True], ~same_row])
    group_of_row = np.cumsum(boundaries) - 1
    merged = np.zeros(int(group_of_row[-1]) + 1, dtype=np.int64)
    np.add.at(merged, group_of_row, coeffs[order])
    return sorted_exps[boundaries], merged


def _multiply_arrays(
    ea: np.ndarray,
    ca: np.ndarray,
    eb: np.ndarray,
    cb: np.ndarray,
    budget: Optional[int],
) -> Tuple[np.ndarray, np.ndarray]:
    m, n = len(ca), len(cb)
    if m * n > _HARD_PAIRS_CAP:
        raise TermBudgetExceeded(f"product of {m} x {n} terms is too large to expand")
    # int64 coefficient products must stay exact
    if int(np.abs(ca).max()) * int(np.abs(cb).max()) * min(m, n) >= _INT64_SAFE_MAX:
        return _dict_to_arrays(
            _multiply_dicts(_arrays_to_dict(ea, ca), _arrays_to_dict(eb, cb), budget)
        )
    width = ea.shape[1]
    rows_per_chunk = max(1, _MAX_PRODUCT_CELLS // (width * n))
    chunks_e: List[np.ndarray] = []
    chunks_c: List[np.ndarray] = []
    total = 0
    for start in range(0, m, rows_per_chunk):
        ea_chunk = ea[start : start + rows_per_chunk]
        ca_chunk = ca[start : start + rows_per_chunk]
        sums = (ea_chunk[:, None, :] + eb[None, :, :]).reshape(-1, width)
        prods = (ca_chunk[:, None] * cb[None, :]).reshape(-1)
        uniq, merged = _merge_rows(sums, prods)
        if budget is not None and len(uniq) > budget:
            raise TermBudgetExceeded(f"product exceeded {budget} terms")
        chunks_e.append(uniq)
        chunks_c.append(merged)
        total += len(uniq)
    if len(chunks_e) == 1:
        exps, coeffs = chunks_e[0], chunks_c[0]
    else:
        exps, coeffs = _merge_rows(np.concatenate(chunks_e), np.concatenate(chunks_c))
    if budget is not None and len(coeffs) > budget:
        raise TermBudgetExceeded(f"product exceeded {budget} terms")
    return exps, coeffs


# internal polynomial: ("d", terms dict) or ("a", exps, coeffs)
_Internal = Tuple


def _internal_len(poly: _Internal) -> int:
    return len(poly[1]) if poly[0] == "d" else len(poly[2])


def _internal_multiply(a: _Internal, b: _Internal, budget: Optional[int]) -> _Internal:
    pairs = _internal_len(a) * _internal_len(b)
    if a[0] == "d" and b[0] == "d" and pairs <= _DICT_PAIRS_MAX:
        return ("d", _multiply_dicts(a[1], b[1], budget))
    ea, ca = (a[1], a[2]) if a[0] == "a" else _dict_to_arrays(a[1])
    eb, cb = (b[1], b[2]) if b[0] == "a" else _dict_to_arrays(b[1])
    exps, coeffs = _multiply_arrays(ea, ca, eb, cb, budget)
    return ("a", exps, coeffs)


def _internal_to_polynomial(poly: _Internal, d: int) -> Polynomial:
    if poly[0] == "d":
        return Polynomial(d=d, terms=poly[1])
    return Polynomial(d=d, exps=poly[1], coeffs=poly[2])


def _polynomial_to_internal(poly: Polynomial) -> _Internal:
    if poly._terms is not None:
        return ("d", poly._terms)
    return ("a", poly._exps, poly._coeffs)


def poly_multiply(p: Polynomial, q: Polynomial, budget: Optional[int] = None) -> Polynomial:
    """Distributive product: exponent vectors add, coefficients multiply, like terms merge."""
    if p.d != q.d:
        raise ValueError(f"mismatched label counts: {p.d} != {q.d}")
    result = _internal_multiply(_polynomial_to_internal(p), _polynomial_to_internal(q), budget)
    return _internal_to_polynomial(result, p.d)


def _add_y_term(poly: _Internal, d: int, label: int, budget: Optional[int]) -> _Internal:
    if poly[0] == "d":
        terms = dict(poly[1])
        key = tuple(1 if i == d + label else 0 for i in range(2 * d))
        terms[key] = terms.get(key, 0) + 1
        if budget is not None and len(terms) > budget:
            raise TermBudgetExceeded(f"polynomial exceeded {budget} terms")
        return ("d", terms)
    exps, coeffs = poly[1], poly[2]
    y_row = np.zeros(2 * d, dtype=exps.dtype)
    y_row[d + label] = 1
    hits = np.nonzero((exps == y_row).all(axis=1))[0]
    if hits.size:
        coeffs = coeffs.copy()
        coeffs[hits[0]] += 1
        return ("a", exps, coeffs)
    exps = np.concatenate([exps, y_row[None, :]])
    coeffs = np.concatenate([coeffs, np.ones(1, dtype=np.int64)])
    if budget is not None and len(coeffs) > budget:
        raise TermBudgetExceeded(f"polynomial exceeded {budget} terms")
    return ("a", exps, coeffs)


def tree_to_polynomial(
    tree: DepTree, vocab: LabelVocab, budget: Optional[int] = DEFAULT_TERM_BUDGET
) -> Polynomial:
    """Polynomial of the tree's root node; raises TermBudgetExceeded on blow-up.

    The expansion runs in the subspace of labels that actually occur in the
    tree (exponent vectors of width 2k instead of 2d) and scatters back to
    the shared 2d layout at the end; term sets are identical either way.
    """
    d = vocab.d
    used = sorted({node.label for node in tree.iter_nodes()})
    k = len(used)
    compact = {label: i for i, label in enumerate(used)}
    width = 2 * k

    # iterative post-order so deep parse chains cannot hit the recursion limit
    result: Dict[int, _Internal] = {}
    stack = [(tree.root, False)]
    while stack:
        node, expanded = stack.pop()
        if not expanded:
            stack.append((node, True))
            for child in node.children:
                stack.append((child, False))
            continue
        if not node.children:
            exps = [0] * width
            exps[compact[node.label]] = 1
            result[id(node)] = ("d", {tuple(exps): 1})
            continue
        prod = result.pop(id(node.children[0]))
        for child in node.children[1:]:
            prod = _internal_multiply(prod, result.pop(id(child)), budget)
        result[id(node)] = _add_y_term(prod, k, compact[node.label], budget)

    poly = result[id(tree.root)]
    if poly[0] == "d":
        terms: Dict[Tuple[int, ...], int] = {}
        for key, coeff in poly[1].items():
            full = [0] * (2 * d)
            for i, e in enumerate(key):
                if e:
                    full[used[i] if i < k else d + used[i - k]] = e
            terms[tuple(full)] = coeff
        return Polynomial(d=d, terms=terms)
    exps, coeffs = poly[1], poly[2]
    full_exps = np.zeros((len(coeffs), 2 * d), dtype=np.int32)
    used_arr = np.asarray(used, dtype=np.intp)
    full_exps[:, used_arr] = exps[:, :k]
    full_exps[:, used_arr + d] = exps[:, k:]
    return Polynomial(d=d, exps=full_exps, coeffs=coeffs)


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
    # block size keeps the |s-t| tensor around ~4M int64 entries
    block = max(64, int((4_000_000 // width) ** 0.5))
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
    try:
        P = p.matrix()
        Q = q.matrix()
    except OverflowError:
        # coefficients outgrew int64; exact but slow Python arithmetic
        return _poly_distance_exact(p, q, w)
    row_min, col_min = _directional_min_sums(P, Q, w)
    if w is None:
        total: float = float(int(row_min.sum()) + int(col_min.sum()))
    else:
        total = float(row_min.sum() + col_min.sum())
    return total / (len(p) + len(q))


def _poly_distance_exact(
    p: Polynomial, q: Polynomial, w: Optional[np.ndarray]
) -> float:
    p_rows = [exps + (coeff,) for exps, coeff in p.terms.items()]
    q_rows = [exps + (coeff,) for exps, coeff in q.terms.items()]
    wl = list(w) if w is not None else None

    def one_way(rows, others):
        total = 0
        for s in rows:
            best = None
            for t in others:
                if wl is None:
                    dist = sum(abs(a - b) for a, b in zip(s, t))
                else:
                    dist = sum(abs(a - b) * wi for a, b, wi in zip(s, t, wl))
                if best is None or dist < best:
                    best = dist
            total += best
        return total

    total = one_way(p_rows, q_rows) + one_way(q_rows, p_rows)
    return float(total) / (len(p_rows) + len(q_rows))
