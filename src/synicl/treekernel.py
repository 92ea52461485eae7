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

Re-ranking scores each query against many pool trees. `PoolForest` reads
the forest that holds the pool's trees, without copying it, and scores a
block of queries, each against its own candidates, in one pass, level by
level from the root pairs down, in numpy: only node pairs that can match
are visited, found by label as in Moschitti's fast tree kernel ("Making
tree kernels practical for natural language learning", EACL 2006). The
block's query nodes are renumbered into one local range, so the fixed cost
of a pass (its per-(node, label) tables and some two dozen numpy calls a
level) is paid once per block, not once per query, while its memory grows
with its root pairs (see `pipeline._BLOCK_ROOT_PAIRS`). Each frontier pair
(query node, pool node) is expanded to the pool node's child groups; a
group adds the query node's leaf count of its label times its own, and
crosses the query node's internal children of its label with its own,
which makes the next frontier. Going back up, a pair scores `(nested +
leaves) / size`. A pair's score depends on its own subtree pairs alone,
so it has the same bits in any block.

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


def _ranges(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges `first[i]` to `first[i] + counts[i] - 1`, laid end to end."""
    if len(counts) == 1:  # a block of one query: spare `select` the general form's calls
        return np.arange(first[0], first[0] + counts[0])
    return np.arange(int(counts.sum())) + np.repeat(first - (np.cumsum(counts) - counts), counts)


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

    def scores(self, queries: Sequence[DepTree], ids: Sequence[np.ndarray]) -> np.ndarray:
        """`tree_kernel_similarity(queries[q], tree)` for the pool trees `ids[q]`, bit for bit.

        Returns float64 scores laid end to end, query after query, each
        query's in the order of its `ids`. Queries from several forests are
        joined into one. Query labels the pool never uses are allowed; they
        match nothing.
        """
        if not len(queries):
            return np.zeros(0)
        queries = in_one_forest(queries)
        f = queries[0].forest
        t = np.fromiter((query.index for query in queries), np.intp, len(queries))
        # the block's query nodes, their groups and their internal kids, each query's
        # laid end to end in one local range: a tree's nodes, groups and kids are
        # contiguous in its forest, so local kid ids are node ids shifted per query
        v0, v1 = f.tree_start[t], f.tree_start[t + 1]
        g0, g1 = f.group_start[v0], f.group_start[v1]
        k0, k1 = f.kid_start[g0], f.kid_start[g1]
        shift = np.cumsum(v1 - v0) - (v1 - v0) - v0  # global node id + shift = local id
        nodes = _ranges(v0, v1 - v0)
        groups = _ranges(g0, g1 - g0)
        q_groups = f.group_start[nodes + 1] - f.group_start[nodes]
        q_label = f.group_label[groups].astype(np.intp)
        inner = f.kid_start[groups + 1] - f.kid_start[groups]
        q_kids = f.kids[_ranges(k0, k1 - k0)] + np.repeat(shift, k1 - k0)
        # int64, so that a product of two child counts does not wrap
        q_size = np.maximum(f.n_children[nodes], 1).astype(np.int64)
        # per (query node, label): leaf count, and the query's internal kids there
        width = max(self.width, 1 + int(q_label.max(initial=-1)))
        cell = _segments(q_groups) * width + q_label
        q_leaves = np.zeros(len(nodes) * width)
        q_leaves[cell] = f.group_leaves[groups]
        q_inner = np.zeros(len(nodes) * width, dtype=np.intp)
        q_inner[cell] = inner
        q_first = np.zeros(len(nodes) * width, dtype=np.intp)
        q_first[cell] = np.cumsum(inner) - inner

        # down: each level's leaf sums, sizes, and the parent of each of its pairs
        levels = []
        counts = np.fromiter((len(each) for each in ids), np.intp, len(ids))
        qa = np.repeat(f.roots[t] + shift, counts)
        pool = self.forest
        pb = self.roots[np.concatenate(ids)]
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
                    total[many] = [fsum(nested[start:end] + [leaf]) for start, end, leaf in zip(
                        (ends - n_nested)[many].tolist(), ends[many].tolist(),
                        leaves[many].tolist())]
            scores, below = total / size, parent
        return scores
