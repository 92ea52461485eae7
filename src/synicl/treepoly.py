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

A pool's trees are expanded all at once by `pool_polynomials`, in blocks
of `_POOL_BLOCK_TREES` trees, level by level from the deepest nodes, in
numpy; `tree_to_polynomial` stays the per-tree reference and builds query
polynomials. One `np.unique` over (tree, entry) gives every tree's support
and every node's field, and a term is packed into uint64 words of the same
fixed-width fields, so adding two keys adds two monomials. A factor of one
term keeps the order and the count of the terms it multiplies, on whichever
side `_multiply`'s swap puts it, so a node's leaf kids fold into one shift
of its product, and only its internal kids are multiplied, in token order:
the longer factor is the outer loop, the running product on a tie. Like
terms merge in the order they first occur (a sort, then the first pair of
each group). Then y adds 1 to an equal term (a node whose only kid is internal
can hold one) or comes last, and the term budget applies after each product
and after y. A tree goes to `tree_to_polynomial`, which decides it
exactly, when a coefficient product or merged sum reaches 2**61 in float64
(so int64 holds every one the pass keeps), or when a product has more than
`_POOL_PAIRS` term pairs, or more than `_HARD_PAIRS_CAP`, read at call time
(a leaf kid's product has at most its node's final count). Past
`_POOL_PAIRS` a dict merges a pair about as fast as a sort, so the
fallback pays for speed too. The pool's rows are one flat int64 buffer,
written block by block once every block is expanded (so the pass's scratch
arrays are freed first): each pool polynomial is a read-only, C-contiguous
view of it, with rows of the pool's support and slot matrices, and
`Polynomial.__init__` does not run.

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
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .treebank import DepTree, Forest, LabelVocab, in_one_forest

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
# about 0.5-0.9 s of distance work per query. Those timings predate the
# distance over the union of two supports, and the cap has not been derived
# again since.
QUERY_PAIRS_CAP = 4_000_000
# one block of the distance's |s-t| tensor has at most about this many entries
_BLOCK_ENTRIES = 4_000_000
# the pool pass expands this many trees at a time, which bounds its scratch arrays
_POOL_BLOCK_TREES = 1024
# a tree with a product of more term pairs than this goes to tree_to_polynomial
_POOL_PAIRS = 512
# so does one whose coefficient product or merged sum reaches this, in float64
_POOL_COEFF_LIMIT = 2.0 ** 61
# a packed key's word: little-endian, so its fields read back as a view
_KEY = np.dtype("<u8")


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

    @classmethod
    def _view(cls, d: int, rows: np.ndarray, support: np.ndarray, slot: np.ndarray) -> "Polynomial":
        """A polynomial of arrays already built and made read-only, without `__init__`."""
        poly = object.__new__(cls)
        poly.d, poly.rows, poly.support, poly.slot = d, rows, support, slot
        return poly

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
# the pool pass: every tree of a pool at once, level by level
# ---------------------------------------------------------------------------

def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """start, ..., start + count - 1 of each (start, count), laid end to end."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total, dtype=np.intp) + np.repeat(starts - ends + counts, counts)


def _product(a_keys: np.ndarray, a_coef: np.ndarray, a_start: np.ndarray, m: np.ndarray,
             b_keys: np.ndarray, b_coef: np.ndarray, b_start: np.ndarray, n: np.ndarray
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Segment by segment, `_multiply` of a's m terms from `a_start` and b's n from `b_start`.

    The longer factor is the outer loop, a on a tie; like terms merge into
    the first of them, in the order they first occur. Both factors are
    polynomials of internal nodes, which have two or more terms (a node of
    leaf kids has its x term and y, and a product has at least as many
    terms as either factor), so any product can hold like terms. Returns
    the product's packed keys, coefficients and per-segment term counts,
    and the segments where a coefficient product or merged sum reached
    `_POOL_COEFF_LIMIT` (their values are not exact).
    """
    pairs = m * n
    seg = np.repeat(np.arange(len(pairs)), pairs)
    within = _ranges(np.zeros_like(pairs), pairs)
    a_outer = m >= n
    outer, inner = np.divmod(within, np.where(a_outer, n, m)[seg])
    a_outer = a_outer[seg]
    ai = a_start[seg] + np.where(a_outer, outer, inner)
    bi = b_start[seg] + np.where(a_outer, inner, outer)
    keys = a_keys[ai] + b_keys[bi]
    coef = a_coef[ai] * b_coef[bi]
    approx = a_coef[ai].astype(np.float64) * b_coef[bi]
    # a sort groups equal (segment, key) pairs; the first of each group, in
    # pair order, keeps the group's sum
    order = np.lexsort([*keys.T, seg])
    sorted_keys, sorted_seg = keys[order], seg[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = ((sorted_seg[1:] != sorted_seg[:-1])
               | (sorted_keys[1:] != sorted_keys[:-1]).any(axis=1))
    starts = np.flatnonzero(new)
    first = np.minimum.reduceat(order, starts)
    coef[first] = np.add.reduceat(coef[order], starts)
    approx[first] = np.add.reduceat(approx[order], starts)
    kept = np.sort(first)
    counts = np.bincount(seg[kept], minlength=len(pairs))
    inexact = np.bincount(seg[kept], approx[kept] >= _POOL_COEFF_LIMIT, len(pairs)) > 0
    return keys[kept], coef[kept], counts, inexact


class _Block(NamedTuple):
    """What the pass keeps of a block of trees until the pool's arrays are made."""

    support: np.ndarray  # (trees, 2d + 1) bool
    slot: np.ndarray  # (trees, 2d + 1), the block's narrowest unsigned type
    s: np.ndarray  # each tree's support size, the coefficient not counted
    expanded: np.ndarray  # the trees the pass expanded, ascending
    count: np.ndarray  # their term counts
    fields: np.ndarray  # (terms, widest) exponents in support order, tree by tree
    coef: np.ndarray  # int64 coefficients of those terms
    fallback: np.ndarray  # the trees left to tree_to_polynomial


def _expand_block(forest: Forest, index: np.ndarray, d: int, budget: Optional[int]) -> _Block:
    """The pass over the trees `index` of `forest`."""
    n_trees = len(index)
    pairs_limit = min(_POOL_PAIRS, _HARD_PAIRS_CAP)
    first = forest.tree_start[index].astype(np.intp)
    sizes = forest.tree_start[index + 1] - first
    nodes = _ranges(first, sizes)
    tree = np.repeat(np.arange(n_trees), sizes)  # block-local node id -> tree
    base = np.cumsum(sizes) - sizes  # each tree's first block-local node
    labels = forest.labels[nodes].astype(np.intp)
    if labels.max() >= d:  # a label past the vocab would land in the next tree's entries
        raise ValueError(f"a tree has label id {labels.max()}, but the vocab has {d} labels")
    heads = forest.heads[nodes].astype(np.intp)
    internal = forest.n_children[nodes] > 0
    is_root = heads == 0
    parent = np.where(is_root, -1, base[tree] + heads - 1)

    # the support: one entry per (tree, leaf x or internal y label), ascending
    # entry ids within a tree; a node's field is its entry's place there
    width = 2 * d + 1
    entry, where = np.unique(tree * width + np.where(internal, d + labels, labels),
                             return_inverse=True)
    entry_tree, entry = np.divmod(entry, width)
    s = np.bincount(entry_tree, minlength=n_trees)
    s_start = np.cumsum(s) - s
    field = where.reshape(-1) - s_start[tree]
    support = np.zeros((n_trees, width), dtype=bool)
    support[entry_tree, entry] = True
    support[:, 2 * d] = True
    slot = np.empty((n_trees, width), dtype=np.min_scalar_type(s.max() + 1))
    slot[:] = (s + 1)[:, None]
    slot[entry_tree, entry] = np.arange(len(entry)) - s_start[entry_tree]
    slot[:, 2 * d] = s

    # exponents packed in fixed-width fields of uint64 words, each field wide
    # enough for the largest tree, so adding two keys adds two monomials
    field_type = np.min_scalar_type(sizes.max()).newbyteorder("<")
    per_word = 8 // field_type.itemsize
    n_words = max(1, -(-int(s.max()) // per_word))
    word = field // per_word
    bits = 8 * field_type.itemsize
    bit = np.left_shift(np.uint64(1), (bits * (field % per_word)).astype(np.uint64))
    # every leaf kid multiplies by a one-term factor, so its node's product is
    # that of the internal kids shifted by the leaf kids' monomials (a one-node
    # tree's root by its own)
    shift = np.zeros((len(nodes), n_words), dtype=_KEY)
    leaves = np.flatnonzero(~internal)
    np.add.at(shift, (np.where(is_root, np.arange(len(nodes)), parent)[leaves], word[leaves]),
              bit[leaves])

    # children in token order: a stable sort by parent, the roots first
    kids = np.argsort(parent, kind="stable")[n_trees:]
    n_kids = np.bincount(parent[kids], minlength=len(nodes))
    kid_start = np.cumsum(n_kids) - n_kids
    inner_kids = kids[internal[kids]]
    n_inner = np.bincount(parent[inner_kids], minlength=len(nodes))
    inner_start = np.cumsum(n_inner) - n_inner
    levels = [np.flatnonzero(is_root)]
    while True:
        below = kids[_ranges(kid_start[levels[-1]], n_kids[levels[-1]])]
        if not len(below):
            break
        levels.append(below)

    ok = np.ones(n_trees, dtype=bool)  # still expanding here
    fallback = np.zeros(n_trees, dtype=bool)  # left to tree_to_polynomial
    # the level below: each node's terms, and one unit term last
    poly_start = np.zeros(len(nodes), dtype=np.intp)
    poly_count = np.zeros(len(nodes), dtype=np.intp)
    src_keys = np.zeros((1, n_words), dtype=_KEY)
    src_coef = np.ones(1, dtype=np.int64)
    for level in reversed(levels):
        act = level[(internal[level] | is_root[level]) & ok[tree[level]]]
        if not len(act):
            continue  # the level below stays, and so does its unit term
        unit = len(src_coef) - 1
        has = n_inner[act] > 0
        r_start = np.full(len(act), unit, dtype=np.intp)
        r_count = np.ones(len(act), dtype=np.intp)
        k0 = inner_kids[inner_start[act[has]]]
        r_start[has], r_count[has] = poly_start[k0], poly_count[k0]
        r_keys, r_coef = src_keys, src_coef
        done = []
        j = 1
        while True:
            live = ok[tree[act]]
            more = live & (n_inner[act] > j)
            fin = live & ~more
            terms = _ranges(r_start[fin], r_count[fin])
            done.append((act[fin], r_count[fin], r_keys[terms], r_coef[terms]))
            act, r_start, r_count = act[more], r_start[more], r_count[more]
            if not len(act):
                break
            kid = inner_kids[inner_start[act] + j]
            too_many = r_count * poly_count[kid] > pairs_limit
            fallback[tree[act[too_many]]] = True
            ok[tree[act[too_many]]] = False
            act, r_start, r_count, kid = (x[~too_many] for x in (act, r_start, r_count, kid))
            r_keys, r_coef, r_count, inexact = _product(
                r_keys, r_coef, r_start, r_count, src_keys, src_coef, poly_start[kid],
                poly_count[kid])
            r_start = np.cumsum(r_count) - r_count
            fallback[tree[act[inexact]]] = True
            ok[tree[act[inexact]]] = False
            if budget is not None:  # a stop, not a decision: counts only grow until y
                ok[tree[act[r_count > budget]]] = False
            j += 1
        act = np.concatenate([part[0] for part in done])
        count = np.concatenate([part[1] for part in done])
        keys = np.concatenate([part[2] for part in done]) + shift[np.repeat(act, count)]
        coef = np.concatenate([part[3] for part in done])
        # a leaf kid's product has at most the node's final count of term pairs
        wide = (n_kids[act] > n_inner[act]) & (n_kids[act] > 1) & (count > pairs_limit)
        fallback[tree[act[wide]]] = True
        ok[tree[act[wide]]] = False
        # then y: one more to a term equal to it, else a new last term
        owner = np.repeat(np.arange(len(act)), count)
        y = np.zeros((len(act), n_words), dtype=_KEY)
        y[np.arange(len(act)), word[act]] = bit[act]
        equal = np.flatnonzero((keys == y[owner]).all(axis=1) & internal[act][owner])
        coef[equal] += 1
        add = internal[act] & (np.bincount(owner[equal], minlength=len(act)) == 0)
        new_count = count + add
        new_start = np.cumsum(new_count) - new_count
        src_keys = np.zeros((new_count.sum() + 1, n_words), dtype=_KEY)
        src_coef = np.ones(len(src_keys), dtype=np.int64)
        moved = new_start[owner] + np.arange(len(owner)) - (np.cumsum(count) - count)[owner]
        src_keys[moved], src_coef[moved] = keys, coef
        src_keys[(new_start + count)[add]] = y[add]
        if budget is not None:
            ok[tree[act[internal[act] & (new_count > budget)]]] = False
        poly_start[act], poly_count[act] = new_start, new_count

    expanded = np.flatnonzero(ok)
    roots = levels[0][expanded]
    count = poly_count[roots]
    terms = _ranges(poly_start[roots], count)
    fields = src_keys[terms].view(field_type)[:, :int(s[expanded].max(initial=0))]
    return _Block(support, slot, s, expanded, count, fields, src_coef[terms],
                  np.flatnonzero(fallback))


def _write_rows(block: _Block, buffer: np.ndarray, done: int) -> int:
    """Write the block's rows into `buffer` from `done` on; returns where they end."""
    s_term = np.repeat(block.s[block.expanded], block.count)
    row = done + np.cumsum(s_term + 2) - (s_term + 2)
    buffer[_ranges(row, s_term)] = block.fields[np.arange(block.fields.shape[1]) < s_term[:, None]]
    buffer[row + s_term] = block.coef
    buffer[row + s_term + 1] = 0
    return done + int((s_term + 2).sum())


def pool_polynomials(
    trees: Sequence[DepTree], vocab: LabelVocab, budget: Optional[int] = DEFAULT_TERM_BUDGET
) -> List[Optional[Polynomial]]:
    """`tree_to_polynomial` of every tree, None where it raises TermBudgetExceeded.

    Every polynomial has the rows, support and slot that `tree_to_polynomial`
    gives; the trees may come from several forests.
    """
    trees = in_one_forest(trees)
    if not trees:
        return []
    index = np.fromiter((tree.index for tree in trees), np.intp, len(trees))
    firsts = range(0, len(trees), _POOL_BLOCK_TREES)
    blocks = [_expand_block(trees[0].forest, index[first: first + _POOL_BLOCK_TREES],
                            len(vocab), budget) for first in firsts]
    # the pool's arrays are made only now, with every block's scratch arrays
    # freed, and each block's rows go straight into their part of the buffer:
    # its exponents over its support, the coefficient, the zero column
    support = np.concatenate([block.support for block in blocks])
    slot = np.concatenate([block.slot for block in blocks])
    s = np.concatenate([block.s for block in blocks])
    expanded = np.concatenate([first + block.expanded for first, block in zip(firsts, blocks)])
    fallback = np.concatenate([first + block.fallback for first, block in zip(firsts, blocks)])
    count = np.concatenate([block.count for block in blocks])
    size = count * (s[expanded] + 2)
    start = np.cumsum(size) - size
    buffer = np.empty(int(size.sum()), dtype=np.int64)
    done = 0
    while blocks:
        done = _write_rows(blocks.pop(0), buffer, done)
    for array in (buffer, support, slot):
        array.flags.writeable = False

    # a slot map's dtype is the narrowest for its tree, as in `Polynomial`
    narrowest = slot.dtype == np.min_scalar_type(0)
    d = len(vocab)
    polys: List[Optional[Polynomial]] = [None] * len(trees)
    for t, at, n_terms, s_t in zip(expanded.tolist(), start.tolist(), count.tolist(),
                                   s[expanded].tolist()):
        tree_slot = slot[t]
        if not narrowest and tree_slot.dtype != np.min_scalar_type(s_t + 1):
            tree_slot = tree_slot.astype(np.min_scalar_type(s_t + 1))
            tree_slot.flags.writeable = False
        polys[t] = Polynomial._view(
            d, buffer[at: at + n_terms * (s_t + 2)].reshape(n_terms, s_t + 2), support[t],
            tree_slot)
    for t in fallback.tolist():
        try:
            polys[t] = tree_to_polynomial(trees[t], vocab, budget)
        except TermBudgetExceeded:
            pass
    return polys


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
