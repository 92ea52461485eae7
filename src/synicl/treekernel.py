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
"""

from __future__ import annotations

from math import fsum

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
