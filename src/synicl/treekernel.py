"""Recursive tree-kernel similarity over labeled dependency trees.

The score of two trees is computed by a recursive pairwise comparison of
children: equal-label leaf pairs count 1, equal-label internal pairs recurse,
and the accumulated sum is normalized by the product of the child counts
(taken as 1 when a node has no children). Only children are compared; the
labels of the two root nodes themselves never participate.

Both trees are read from their `treebank.Forest`s, where each node's
children are grouped by label and the groups sorted by label. The kernel
merge-joins the two nodes' group lists: a label present on both sides adds
its leaf count times the other's, and one recursion per pair of its internal
children. Nothing is allocated per node unless internal children match.
Contributions are added with exact summation (`fsum`, leaf matches as one
integer), so each score is the correctly rounded sum whatever the order:
the same bits as comparing every pair of children one by one, and exactly
symmetric.

Re-ranking a pool scores one query against many trees, and most pairs end
at the root: unless the two roots have an internal child of a common label,
nothing recurses and the score is the root's leaf matches over the product
of the child counts. `RootProfile` holds the root level of every pool tree
as arrays (leaf children counted by label, the labels of internal children,
the child count), and `RootProfile.scores` scores all candidates of a query
in one numpy pass, naming the few that share an internal-child label with
the query's root; only those go through `tree_kernel_similarity`, which
stays the one recursive path. The root pass is exact: the leaf matches are
an integer sum of integer products, as in `_node_similarity`, and both they
and the product of the child counts stay below 2**53 (for roots of fewer
than 2**26 children), so the score is one IEEE division of two exactly
representable numbers: the correctly rounded quotient, which is what
Python's `leaves / size` gives.
"""

from __future__ import annotations

from math import fsum
from typing import Iterable, Tuple

import numpy as np

from .treebank import DepTree, Forest


def _node_similarity(fa: Forest, a: int, fb: Forest, b: int) -> float:
    """Similarity of the subtrees under node `a` of `fa` and node `b` of `fb`."""
    ga, ga_end = fa.group_start[a], fa.group_start[a + 1]
    gb, gb_end = fb.group_start[b], fb.group_start[b + 1]
    labels_a, labels_b = fa.group_label, fb.group_label
    leaves = 0
    nested = None
    while ga < ga_end and gb < gb_end:
        label_a, label_b = labels_a[ga], labels_b[gb]
        if label_a < label_b:
            ga += 1
        elif label_a > label_b:
            gb += 1
        else:
            leaves += fa.group_leaves[ga] * fb.group_leaves[gb]
            kids_a = fa.kids[fa.kid_start[ga]: fa.kid_start[ga + 1]]
            if kids_a:
                kids_b = fb.kids[fb.kid_start[gb]: fb.kid_start[gb + 1]]
                if kids_b:
                    if nested is None:
                        nested = []
                    for ka in kids_a:
                        for kb in kids_b:
                            nested.append(_node_similarity(fa, ka, fb, kb))
            ga += 1
            gb += 1
    size = (fa.n_children[a] or 1) * (fb.n_children[b] or 1)
    if nested is None:
        return leaves / size
    nested.append(leaves)
    return fsum(nested) / size


def tree_kernel_similarity(t1: DepTree, t2: DepTree) -> float:
    """Kernel score of two trees: the similarity of their root nodes."""
    f1, f2 = t1.forest, t2.forest
    return _node_similarity(f1, f1.roots[t1.index], f2, f2.roots[t2.index])


class RootProfile:
    """The root level of every tree of a pool, as label-major arrays.

    `leaves[l, t]` counts the leaf children of label l under tree t's root
    (int32), `internal[l, t]` says whether that root has an internal child
    of label l, and `sizes[t]` is the root's child count, or 1 for a single
    token. The width (rows) is one past the largest root-child label of the
    pool; label-major rows make a query's few labels cheap to gather.
    """

    __slots__ = ("leaves", "internal", "sizes")

    def __init__(self, trees: Iterable[DepTree]):
        leaf_trees, leaf_labels, leaf_counts = [], [], []
        inner_trees, inner_labels = [], []
        sizes = []
        for t, tree in enumerate(trees):
            f = tree.forest
            root = f.roots[tree.index]
            sizes.append(f.n_children[root] or 1)
            group_label, group_leaves, kid_start = f.group_label, f.group_leaves, f.kid_start
            for g in range(f.group_start[root], f.group_start[root + 1]):
                if group_leaves[g]:
                    leaf_trees.append(t)
                    leaf_labels.append(group_label[g])
                    leaf_counts.append(group_leaves[g])
                if kid_start[g] < kid_start[g + 1]:
                    inner_trees.append(t)
                    inner_labels.append(group_label[g])
        width = 1 + max(max(leaf_labels, default=-1), max(inner_labels, default=-1))
        self.leaves = np.zeros((width, len(sizes)), dtype=np.int32)
        self.leaves[leaf_labels, leaf_trees] = leaf_counts
        self.internal = np.zeros((width, len(sizes)), dtype=bool)
        self.internal[inner_labels, inner_trees] = True
        self.sizes = np.array(sizes, dtype=np.int64)

    def scores(self, query: DepTree, ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Root-level scores of `query` against the pool trees `ids`, and where to recurse.

        Returns float64 scores in the order of `ids` and the positions in
        `ids` whose root shares an internal-child label with the query's
        root. Every other score equals `tree_kernel_similarity(query, tree)`
        bit for bit; the returned positions must be scored by it instead.
        A query label at or past the width matches no pool tree's label.
        """
        f = query.forest
        root = f.roots[query.index]
        width = len(self.leaves)
        leaf_labels, leaf_counts, inner_labels = [], [], []
        for g in range(f.group_start[root], f.group_start[root + 1]):
            label = f.group_label[g]
            if label < width:
                if f.group_leaves[g]:
                    leaf_labels.append(label)
                    leaf_counts.append(f.group_leaves[g])
                if f.kid_start[g] < f.kid_start[g + 1]:
                    inner_labels.append(label)
        matched = np.array(leaf_counts, dtype=np.int64) @ self.leaves[leaf_labels].take(ids, axis=1)
        scores = matched / (self.sizes.take(ids) * (f.n_children[root] or 1))
        if not inner_labels:
            return scores, np.empty(0, dtype=np.intp)
        return scores, np.flatnonzero(self.internal[inner_labels].take(ids, axis=1).any(axis=0))
