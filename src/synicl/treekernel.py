"""Recursive tree-kernel similarity over labeled dependency trees.

The score of two trees is computed by a recursive pairwise comparison of
children: equal-label leaf pairs count 1, equal-label internal pairs recurse,
and the accumulated sum is normalized by the product of the child counts
(taken as 1 when a node has no children). Only children are compared; the
labels of the two root nodes themselves never participate.

Both trees are read from the int32 arrays of their `treebank.Forest`s,
where each node's children are grouped by label and the groups sorted by
label. `tree_kernel_similarity` scores one pair: it merge-joins the two
nodes' group lists, where a label present on both sides adds its leaf count
times the other's, and one recursion per pair of its internal children.
It reads single values as Python ints (`ndarray.item`) and slices only
the internal kids it crosses, so no product wraps. Contributions are
added with exact summation (`fsum`, leaf matches as one integer), so each
score is the correctly rounded sum whatever the order: the same bits as
comparing every pair of children one by one, and exactly symmetric. It is
the per-pair reference.

Re-ranking scores one query against many pool trees. `PoolForest` reads
the forest that holds the pool's trees, without copying it, and scores all
candidates of a query in one pass, level by level from the root pairs
down, in numpy: only node pairs that can match are visited, found by label
as in Moschitti's fast tree kernel ("Making tree kernels practical for
natural language learning", EACL 2006). Each frontier pair (query node,
pool node) is expanded to the pool node's child groups; a group adds the
query node's leaf count of its label times its own, and crosses the query
node's internal children of its label with its own, which makes the next
frontier. Going back up, a pair scores `(nested + leaves) / size`.

The pass gives `tree_kernel_similarity`'s bits for every pair:

- `leaves` is a sum of integer products and `size` a product of two child
  counts (taken in float64 and int64, not in the forest's int32), all
  below 2**53 (for nodes of fewer than 2**26 children), so both are exact
  in float64 whatever the order of summation;
- with no nested value the score is one IEEE division of exact operands,
  and with one nested value `x`, `x + leaves` is one IEEE addition: each
  is the correctly rounded result, which is what `fsum` gives;
- a pair with two or more nested values sums them and `leaves` with
  `math.fsum`, as the per-pair kernel does.
"""

from __future__ import annotations

from math import fsum
from typing import Sequence

import numpy as np

from .treebank import DepTree, Forest, in_one_forest


def _node_similarity(fa: Forest, a: int, fb: Forest, b: int) -> float:
    """Similarity of the subtrees under node `a` of `fa` and node `b` of `fb`."""
    i, i_end = fa.group_start.item(a), fa.group_start.item(a + 1)
    j, j_end = fb.group_start.item(b), fb.group_start.item(b + 1)
    labels_a, labels_b = fa.group_label, fb.group_label
    leaves = 0
    nested = None
    while i < i_end and j < j_end:
        label_a, label_b = labels_a.item(i), labels_b.item(j)
        if label_a < label_b:
            i += 1
        elif label_a > label_b:
            j += 1
        else:
            leaves += fa.group_leaves.item(i) * fb.group_leaves.item(j)
            ka0, ka1 = fa.kid_start.item(i), fa.kid_start.item(i + 1)
            kb0, kb1 = fb.kid_start.item(j), fb.kid_start.item(j + 1)
            if ka0 < ka1 and kb0 < kb1:
                if nested is None:
                    nested = []
                kids_b = fb.kids[kb0: kb1].tolist()
                for ka in fa.kids[ka0: ka1].tolist():
                    for kb in kids_b:
                        nested.append(_node_similarity(fa, ka, fb, kb))
            i += 1
            j += 1
    size = (fa.n_children.item(a) or 1) * (fb.n_children.item(b) or 1)
    if nested is None:
        return leaves / size
    nested.append(leaves)
    return fsum(nested) / size


def tree_kernel_similarity(t1: DepTree, t2: DepTree) -> float:
    """Kernel score of two trees: the similarity of their root nodes."""
    f1, f2 = t1.forest, t2.forest
    return _node_similarity(f1, f1.roots.item(t1.index), f2, f2.roots.item(t2.index))


def _segments(counts: np.ndarray) -> np.ndarray:
    """For segments of `counts` items laid end to end, each item's segment."""
    return np.repeat(np.arange(len(counts)), counts)


class PoolForest:
    """A pool's trees in one `treebank.Forest`, for `scores`.

    When every tree lives in one forest (a loaded bundle, one
    `parse_conllu` result), `forest` is that forest, shared and not
    copied; trees from several forests are joined into a new one.
    `roots[t]` is the root of the pool's tree t in `forest`, and `width`
    one past the largest child label.
    """

    __slots__ = ("forest", "roots", "width")

    def __init__(self, trees: Sequence[DepTree]):
        trees = in_one_forest(trees)
        self.forest = trees[0].forest if trees else Forest()
        self.roots = self.forest.roots[
            np.fromiter((tree.index for tree in trees), np.intp, len(trees))]
        self.width = 1 + int(self.forest.group_label.max(initial=-1))

    def scores(self, query: DepTree, ids: np.ndarray) -> np.ndarray:
        """`tree_kernel_similarity(query, tree)` for the pool trees `ids`, bit for bit.

        Returns float64 scores in the order of `ids`. Query labels the pool
        never uses are allowed; they match nothing.
        """
        f, t = query.forest, query.index
        v0, v1 = f.tree_start[t: t + 2].tolist()
        g0, g1 = f.group_start[[v0, v1]].tolist()
        k0, k1 = f.kid_start[[g0, g1]].tolist()
        q_groups = np.diff(f.group_start[v0:v1 + 1])
        q_label = f.group_label[g0:g1].astype(np.intp)
        q_kid_start = f.kid_start[g0:g1 + 1] - k0
        q_kids = f.kids[k0:k1] - v0
        # int64, so that a product of two child counts does not wrap
        q_size = np.maximum(f.n_children[v0:v1], 1).astype(np.int64)
        # per (query node, label): leaf count, and the query's internal kids there
        width = max(self.width, 1 + int(q_label.max(initial=-1)))
        cell = _segments(q_groups) * width + q_label
        q_leaves = np.zeros((v1 - v0) * width)
        q_leaves[cell] = f.group_leaves[g0:g1]
        q_inner = np.zeros((v1 - v0) * width, dtype=np.intp)
        q_inner[cell] = np.diff(q_kid_start)
        q_first = np.zeros((v1 - v0) * width, dtype=np.intp)
        q_first[cell] = q_kid_start[:-1]

        # down: each level's leaf sums, sizes, and the parent of each of its pairs
        levels = []
        qa = np.full(len(ids), f.roots[t] - v0, dtype=np.intp)
        pool = self.forest
        pb = self.roots[ids]
        parent = None
        while True:
            first = pool.group_start[pb]
            count = pool.group_start[pb + 1] - first
            pair = _segments(count)
            g = np.arange(len(pair)) + np.repeat(first - (np.cumsum(count) - count), count)
            key = qa[pair] * width + pool.group_label[g]
            leaves = np.bincount(pair, q_leaves[key] * pool.group_leaves[g], len(pb))
            levels.append((leaves, q_size[qa] * np.maximum(pool.n_children[pb], 1), parent))
            # cross the matched internal kids into the next frontier
            p_first = pool.kid_start[g]
            p_count = pool.kid_start[g + 1] - p_first
            cross = q_inner[key] * p_count
            m = np.flatnonzero(cross)
            if not len(m):
                break
            cross = cross[m]
            within = np.arange(cross.sum()) - np.repeat(np.cumsum(cross) - cross, cross)
            p_each = np.repeat(p_count[m], cross)
            qa = q_kids[np.repeat(q_first[key[m]], cross) + within // p_each]
            pb = pool.kids[np.repeat(p_first[m], cross) + within % p_each]
            parent = np.repeat(pair[m], cross)

        # up: a pair's score is (nested + leaves) / size
        scores = below = None  # the scores of the level below, and their parents here
        for leaves, size, parent in reversed(levels):
            total = leaves
            if scores is not None:
                n_nested = np.bincount(below, minlength=len(leaves))
                total = np.bincount(below, scores, len(leaves)) + leaves
                many = np.flatnonzero(n_nested > 1)
                if len(many):
                    nested = scores.tolist()
                    ends = np.cumsum(n_nested)
                    for p, start, end in zip(many.tolist(), (ends - n_nested)[many].tolist(),
                                             ends[many].tolist()):
                        total[p] = fsum(nested[start:end] + [leaves[p]])
            scores, below = total / size, parent
        return scores
