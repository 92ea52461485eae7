import math
import random
from collections import defaultdict

import numpy as np
import pytest

from synicl import treepoly
from synicl.treebank import LabelVocab, parse_conllu
from synicl.treepoly import (
    EmptyPolynomial,
    Polynomial,
    TermBudgetExceeded,
    WeightProfile,
    poly_distance,
    pool_polynomials,
    tree_to_polynomial,
)

from conftest import (build_tree, leaf, make_synth_corpus, node, random_tree_spec,
                      tree_to_conllu)


# ---------------------------------------------------------------------------
# symbolic-expansion oracle: monomials as sorted tuples of variable atoms
# ("x:label" for leaves, "y:label" for internal nodes), multiplied by
# concatenation. Structurally unrelated to the exponent-vector implementation.
# ---------------------------------------------------------------------------

def oracle_expand(spec):
    label, children = spec
    if not children:
        return {("x:" + label,): 1}
    prod = {(): 1}
    for child in children:
        child_poly = oracle_expand(child)
        merged = defaultdict(int)
        for m1, c1 in prod.items():
            for m2, c2 in child_poly.items():
                merged[tuple(sorted(m1 + m2))] += c1 * c2
        prod = dict(merged)
    y_key = ("y:" + label,)
    prod[y_key] = prod.get(y_key, 0) + 1
    return prod


def full_rows(poly):
    """The polynomial's (n_terms, 2d+1) rows, widened from its support columns.

    Reads only the documented layout (the support's entries in ascending
    order, then the zero column), not the slot map.
    """
    rows = np.zeros((len(poly), 2 * poly.d + 1), dtype=np.int64)
    rows[:, np.flatnonzero(poly.support)] = poly.rows[:, :-1]
    return rows


def terms(poly):
    """The polynomial's rows as an exponent-tuple -> coefficient dict."""
    return {tuple(row[:-1]): row[-1] for row in full_rows(poly).tolist()}


def poly_to_monomials(poly, vocab):
    out = {}
    for exps, coeff in terms(poly).items():
        atoms = []
        for i, e in enumerate(exps):
            if e:
                prefix = "x:" if i < poly.d else "y:"
                atoms.extend([prefix + vocab.labels[i if i < poly.d else i - poly.d]] * e)
        out[tuple(sorted(atoms))] = coeff
    return out


def test_oracle_against_sympy_sample():
    """Validate the test oracle itself with an off-the-shelf symbolic engine."""
    import sympy

    rng = random.Random(3)
    labels = ["a", "b", "c"]
    symbols = {f"{kind}:{lb}": sympy.Symbol(f"{kind}_{lb}") for kind in "xy" for lb in labels}

    def sympy_expand(spec):
        label, children = spec
        if not children:
            return symbols["x:" + label]
        prod = sympy.Integer(1)
        for child in children:
            prod *= sympy_expand(child)
        return symbols["y:" + label] + prod

    for _ in range(60):
        spec = random_tree_spec(rng, rng.randint(1, 6), labels)
        expanded = sympy.expand(sympy_expand(spec))
        expected = {}
        for term, coeff in expanded.as_coefficients_dict().items():
            atoms = []
            for sym, power in term.as_powers_dict().items():
                name = str(sym).replace("_", ":", 1)
                atoms.extend([name] * int(power))
            expected[tuple(sorted(atoms))] = int(coeff)
        assert oracle_expand(spec) == expected


def test_single_leaf_base_case():
    vocab = LabelVocab()
    tree = build_tree(leaf("l"), vocab)
    poly = tree_to_polynomial(tree, vocab)
    assert terms(poly) == {(1, 0): 1}  # d=1: x_l


def test_internal_node_rule():
    vocab = LabelVocab()
    tree = build_tree(node("r", leaf("l")), vocab)
    poly = tree_to_polynomial(tree, vocab)
    # labels: r=0, l=1; terms y_r and x_l
    assert terms(poly) == {(0, 0, 1, 0): 1, (0, 1, 0, 0): 1}


def test_two_identical_leaves_merge_to_square():
    vocab = LabelVocab()
    tree = build_tree(node("r", leaf("l"), leaf("l")), vocab)
    poly = tree_to_polynomial(tree, vocab)
    assert terms(poly) == {(0, 0, 1, 0): 1, (0, 2, 0, 0): 1}  # y_r + x_l^2


def test_expansion_matches_oracle_random_trees():
    rng = random.Random(11)
    labels = ["a", "b", "c"]
    for _ in range(400):
        vocab = LabelVocab()
        spec = random_tree_spec(rng, rng.randint(1, 7), labels)
        tree = build_tree(spec, vocab)
        poly = tree_to_polynomial(tree, vocab)
        assert poly_to_monomials(poly, vocab) == oracle_expand(spec)


def test_term_count_at_least_two_with_children():
    rng = random.Random(12)
    labels = ["a", "b"]
    for _ in range(300):
        vocab = LabelVocab()
        spec = random_tree_spec(rng, rng.randint(2, 10), labels)
        poly = tree_to_polynomial(build_tree(spec, vocab), vocab)
        assert len(poly) >= 2


# ---------------------------------------------------------------------------
# storage over the support
# ---------------------------------------------------------------------------

def pinned_full_width_polynomial(tree, vocab):
    """(rows, support) as the builder made them when every polynomial held all 2d+1 entries.

    Bit fields for x and y of every label in the tree, decoded into a zeroed
    (n_terms, 2d) array, the coefficient appended, the support taken with
    `any`. No term budget.
    """
    labels = tree.labels
    children = [[] for _ in labels]
    root = 0
    for index, head in enumerate(tree.heads):
        if head:
            children[head - 1].append(index)
        else:
            root = index
    used = sorted(set(labels))
    k = len(used)
    compact = {label: i for i, label in enumerate(used)}
    field = np.min_scalar_type(len(labels)).newbyteorder("<")
    bits = 8 * field.itemsize

    def multiply(a, b):
        if len(b) > len(a):
            a, b = b, a
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return out

    def expand(index):
        if not children[index]:
            return {1 << (bits * compact[labels[index]]): 1}
        prod = expand(children[index][0])
        for child in children[index][1:]:
            prod = multiply(prod, expand(child))
        y = 1 << (bits * (k + compact[labels[index]]))
        prod[y] = prod.get(y, 0) + 1
        return prod

    found = expand(root)
    packed = b"".join(key.to_bytes(2 * k * field.itemsize, "little") for key in found)
    compact_exps = np.frombuffer(packed, dtype=field).reshape(len(found), 2 * k)
    d = len(vocab)
    cols = np.asarray(used, dtype=np.intp)
    exps = np.zeros((len(found), 2 * d), dtype=np.int64)
    exps[:, cols] = compact_exps[:, :k]
    exps[:, cols + d] = compact_exps[:, k:]
    rows = np.concatenate((exps, np.array([list(found.values())], dtype=np.int64).T), axis=1)
    return rows, rows.any(axis=0)


def test_full_rows_equal_the_pinned_full_width_builder():
    rng = random.Random(13)
    labels = ["r", "a", "b", "c", "d", "S", "R", "M"]
    vocab = LabelVocab(labels)
    for _ in range(300):
        tree = build_tree(random_tree_spec(rng, rng.randint(1, 9), labels), vocab)
        poly = tree_to_polynomial(tree, vocab)
        rows, support = pinned_full_width_polynomial(tree, vocab)
        # the same terms in the same order: a weighted distance's sums follow it
        assert np.array_equal(full_rows(poly), rows)
        assert np.array_equal(poly.support, support)


def expected_support(tree, d):
    """Entry ids of the tree's leaf labels (x), internal labels (y) and the coefficient."""
    heads = set(tree.heads)
    entries = {2 * d}
    for index, label in enumerate(tree.labels):
        entries.add(d + label if index + 1 in heads else label)
    return sorted(entries)


def test_support_is_leaf_x_internal_y_and_coefficient():
    vocab = LabelVocab()
    # "r" labels only an internal node, "b" and "c" only leaves, "a" both
    tree = build_tree(node("r", node("a", leaf("b"), leaf("a")), leaf("c")), vocab)
    r, a, b, c = (vocab.labels.index(label) for label in "rabc")
    d = len(vocab)
    poly = tree_to_polynomial(tree, vocab)
    assert np.flatnonzero(poly.support).tolist() == sorted([a, b, c, d + r, d + a, 2 * d])
    assert expected_support(tree, d) == sorted([a, b, c, d + r, d + a, 2 * d])

    one_token = tree_to_polynomial(build_tree(leaf("c"), vocab), vocab)
    assert np.flatnonzero(one_token.support).tolist() == [c, 2 * d]
    assert one_token.rows.tolist() == [[1, 1, 0]]  # x_c, its coefficient, the zero column

    rng = random.Random(14)
    labels = ["r", "a", "b", "c", "d", "S"]
    for _ in range(300):
        tree = build_tree(random_tree_spec(rng, rng.randint(1, 9), labels), vocab)
        poly = tree_to_polynomial(tree, vocab)
        assert np.flatnonzero(poly.support).tolist() == expected_support(tree, len(vocab))


def test_only_the_last_stored_column_is_all_zero():
    # a stray zero column would widen a pair's union and move the bits of a
    # non-dyadic weighted distance
    rng = random.Random(15)
    labels = ["r", "a", "b", "c", "d", "S"]
    vocab = LabelVocab(labels)
    for _ in range(300):
        poly = tree_to_polynomial(
            build_tree(random_tree_spec(rng, rng.randint(1, 9), labels), vocab), vocab)
        assert poly.rows.shape[1] == poly.support.sum() + 1
        assert poly.rows[:, :-1].any(axis=0).all() and not poly.rows[:, -1].any()
        # every entry's slot is its stored column, an absent entry's the zero column
        assert np.array_equal(poly.rows[:, poly.slot], full_rows(poly))
        assert (poly.slot[~poly.support] == poly.rows.shape[1] - 1).all()


def make_poly(d, coeffs_by_exps):
    """A polynomial from full-width exponent tuples, stored over the non-zero entries."""
    exps = np.array(list(coeffs_by_exps), dtype=np.int64).reshape(len(coeffs_by_exps), 2 * d)
    columns = np.flatnonzero(exps.any(axis=0))
    return Polynomial(d, columns.tolist(), exps[:, columns], list(coeffs_by_exps.values()))


def test_exponents_wider_than_16_bits():
    vocab = LabelVocab()
    tree = build_tree(node("r", *[leaf("l")] * 70_000), vocab)
    poly = tree_to_polynomial(tree, vocab, budget=None)
    assert terms(poly) == {(0, 0, 1, 0): 1, (0, 70_000, 0, 0): 1}  # y_r + x_l^70000


def test_expansion_coefficients_stop_below_2_62():
    vocab = LabelVocab(["r", "a", "b"])
    # (y_a + x_b)^65 + y_r: the largest coefficient C(65, 32) is still below 2**62
    poly = tree_to_polynomial(build_tree(node("r", *[node("a", leaf("b"))] * 65), vocab), vocab)
    expected = {(0, 0, 65 - j, 0, j, 0): math.comb(65, j) for j in range(66)}
    expected[(0, 0, 0, 1, 0, 0)] = 1
    assert max(expected.values()) < 2**62 and poly.rows.dtype == np.int64
    assert terms(poly) == expected
    assert poly_distance(poly, poly) == 0.0

    # one copy more and C(66, 33) >= 2**62: refused like a term-budget overflow
    over = build_tree(node("r", *[node("a", leaf("b"))] * 66), vocab)
    assert math.comb(66, 33) >= 2**62
    for budget in (treepoly.DEFAULT_TERM_BUDGET, None):
        with pytest.raises(TermBudgetExceeded):
            tree_to_polynomial(over, vocab, budget=budget)


def test_pairs_cap_applies_without_budget(monkeypatch):
    # the largest product here has 4 x 2 = 8 term pairs
    spec = node("r",
                node("a", leaf("u"), leaf("v")),
                node("b", leaf("u"), leaf("w")),
                node("c", leaf("v"), leaf("w")))
    vocab = LabelVocab()
    tree = build_tree(spec, vocab)
    monkeypatch.setattr(treepoly, "_HARD_PAIRS_CAP", 8)
    assert len(tree_to_polynomial(tree, vocab, budget=None)) == 9
    monkeypatch.setattr(treepoly, "_HARD_PAIRS_CAP", 7)
    with pytest.raises(TermBudgetExceeded):
        tree_to_polynomial(tree, vocab, budget=None)


def test_term_budget_enforced():
    vocab = LabelVocab()
    # 3 children x 2 terms each = 9 product terms; budget 5 must trip
    spec = node("r",
                node("a", leaf("u"), leaf("v")),
                node("b", leaf("u"), leaf("w")),
                node("c", leaf("v"), leaf("w")))
    with pytest.raises(TermBudgetExceeded):
        tree_to_polynomial(build_tree(spec, vocab), vocab, budget=5)
    vocab2 = LabelVocab()
    tree2 = build_tree(spec, vocab2)
    assert len(tree_to_polynomial(tree2, vocab2)) >= 2


# ---------------------------------------------------------------------------
# the pool pass
# ---------------------------------------------------------------------------

def assert_pool_matches(trees, vocab, budget=treepoly.DEFAULT_TERM_BUDGET):
    """`pool_polynomials` equals `tree_to_polynomial` tree by tree; returns the refused count.

    Rows in values, dtype and C order, support and slot in values and
    dtypes, all three read-only, and None exactly where the reference raises.
    """
    pooled = pool_polynomials(trees, vocab, budget)
    assert len(pooled) == len(trees)
    refused = 0
    for tree, poly in zip(trees, pooled):
        try:
            want = tree_to_polynomial(tree, vocab, budget)
        except TermBudgetExceeded:
            assert poly is None
            refused += 1
            continue
        assert poly is not None and poly.d == want.d
        assert poly.rows.dtype == want.rows.dtype == np.int64
        assert poly.rows.shape == want.rows.shape and np.array_equal(poly.rows, want.rows)
        assert poly.rows.flags.c_contiguous
        assert np.array_equal(poly.support, want.support) and poly.support.dtype == bool
        assert poly.slot.dtype == want.slot.dtype and np.array_equal(poly.slot, want.slot)
        for array in (poly.rows, poly.support, poly.slot):
            assert not array.flags.writeable
    return refused


def test_pool_polynomials_equal_the_per_tree_reference():
    rng = random.Random(51)
    labels = ["r", "a", "b", "c", "S"]
    vocab = LabelVocab()
    trees = [build_tree(random_tree_spec(rng, rng.randint(1, 9), labels), vocab)
             for _ in range(400)]
    assert sum(tree.n_tokens == 1 for tree in trees) > 10
    assert assert_pool_matches(trees, vocab) == 0
    # budgets that refuse some of the trees, the smaller one more of them
    assert assert_pool_matches(trees, vocab, budget=5) > assert_pool_matches(trees, vocab, 6) > 0
    assert assert_pool_matches(trees, vocab, budget=None) == 0
    assert pool_polynomials([], vocab) == []
    with pytest.raises(ValueError, match="but the vocab has 2 labels"):
        pool_polynomials(trees, LabelVocab(["r", "a"]))


def test_pool_polynomials_merge_y_and_refuse_like_the_reference(monkeypatch):
    vocab = LabelVocab(["r", "a", "b"])
    # y_a is already a term of the kid's polynomial: its coefficient becomes 2
    merged = build_tree(node("a", node("a", leaf("b"))), vocab)
    assert terms(pool_polynomials([merged], vocab)[0]) == {(0, 0, 1, 0, 0, 0): 1,
                                                           (0, 0, 0, 0, 1, 0): 2}
    # C(65, 32) is below 2**62 and C(66, 33) is not: both pass 2**61, so the
    # reference decides, and refuses the second at any budget
    copies = [build_tree(node("r", *[node("a", leaf("b"))] * k), vocab) for k in (65, 66)]
    star = build_tree(node("r", *[leaf("b")] * 70_000), vocab)
    # 301 support entries need a uint16 slot map; the other trees keep uint8
    labelled = build_tree(node("r", *[leaf(f"l{i}") for i in range(300)]), vocab)
    for budget in (treepoly.DEFAULT_TERM_BUDGET, None):
        assert assert_pool_matches([merged, *copies, star, labelled], vocab, budget) == 1
    assert pool_polynomials(copies, vocab)[1] is None

    # the largest product has 4 x 2 = 8 term pairs; the cap is read at call time
    spec = node("r",
                node("a", leaf("u"), leaf("v")),
                node("b", leaf("u"), leaf("w")),
                node("c", leaf("v"), leaf("w")))
    tree = build_tree(spec, vocab)
    # a chain of 8 terms times a leaf: the only product is that of a leaf kid
    chain = leaf("x")
    for label in "wvudcba":
        chain = node(label, chain)
    times_leaf = build_tree(node("r", chain, leaf("z")), vocab)
    for cap, refused in ((8, 0), (7, 2)):
        monkeypatch.setattr(treepoly, "_HARD_PAIRS_CAP", cap)
        assert assert_pool_matches([tree, merged, times_leaf], vocab, budget=None) == refused


def test_pool_polynomials_take_trees_of_several_forests_in_any_block(monkeypatch):
    rng = random.Random(52)
    labels = ["r", "a", "b", "c"]
    vocab = LabelVocab()
    parsed = parse_conllu("\n\n".join(
        tree_to_conllu(build_tree(random_tree_spec(rng, rng.randint(1, 9), labels), vocab), vocab)
        for _ in range(30)), vocab)
    built = [build_tree(random_tree_spec(rng, rng.randint(1, 9), labels), vocab) for _ in range(30)]
    # one forest's trees out of order and repeated, between trees of their own forests
    mixed = [tree for pair in zip(parsed[::-1], built) for tree in pair] + parsed[:5]
    for block in (1, 7, treepoly._POOL_BLOCK_TREES):
        monkeypatch.setattr(treepoly, "_POOL_BLOCK_TREES", block)
        for budget in (6, None):
            assert_pool_matches(mixed, vocab, budget)


def test_pool_polynomials_of_longer_sentences_reach_the_reference(monkeypatch):
    corpus = make_synth_corpus(2_000, seed=5, min_tokens=3, max_tokens=25)
    trees = [ex.tree for ex in corpus.examples]
    reference = treepoly.tree_to_polynomial
    sent = []

    def counted(tree, vocab, budget=treepoly.DEFAULT_TERM_BUDGET):
        sent.append(tree)
        return reference(tree, vocab, budget)

    monkeypatch.setattr(treepoly, "tree_to_polynomial", counted)
    pooled = pool_polynomials(trees, corpus.vocab)
    monkeypatch.undo()
    assert 0 < len(sent) < len(trees) // 10  # some products pass _POOL_PAIRS
    assert all(poly is not None for poly in pooled)
    assert assert_pool_matches(trees, corpus.vocab) == 0


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------

def test_distance_identical_is_zero():
    vocab = LabelVocab()
    tree = build_tree(node("r", leaf("a"), node("b", leaf("c"))), vocab)
    poly = tree_to_polynomial(tree, vocab)
    assert poly_distance(poly, poly) == 0.0
    assert poly_distance(poly, poly, WeightProfile(np.ones(2 * len(vocab) + 1))) == 0.0


def test_distance_two_unit_leaves():
    p = make_poly(2, {(1, 0, 0, 0): 1})  # x_1
    q = make_poly(2, {(0, 1, 0, 0): 1})  # x_2
    assert poly_distance(p, q) == 2.0


def test_weighted_distance_counts_error_entries_twice():
    vocab = LabelVocab(["S", "other"])
    p = make_poly(2, {(1, 0, 0, 0): 1})  # x_S
    q = make_poly(2, {(0, 1, 0, 0): 1})  # x_other
    weights = WeightProfile.error_weighted(vocab, 2.0)
    assert list(weights.weights) == [2.0, 1.0, 2.0, 1.0, 1.0]
    assert poly_distance(p, q, weights) == 3.0


def test_coefficient_entry_participates_unweighted():
    p = make_poly(1, {(1, 0): 1})
    q = make_poly(1, {(1, 0): 4})
    assert poly_distance(p, q) == 3.0  # |1-4| on the coefficient entry


def test_empty_polynomial_rejected():
    p = make_poly(1, {})
    q = make_poly(1, {(1, 0): 1})
    with pytest.raises(EmptyPolynomial):
        poly_distance(p, q)


def test_distance_symmetry_and_weight_monotonicity():
    rng = random.Random(21)
    labels = ["S", "R", "M", "a", "b", "c"]
    plain_labels = ["a", "b", "c"]
    vocab = LabelVocab(labels)
    weights = WeightProfile.error_weighted(vocab, 2.0)
    ones = WeightProfile(np.ones(2 * len(vocab) + 1))
    for i in range(500):
        pool = labels if i % 2 == 0 else plain_labels
        t1 = build_tree(random_tree_spec(rng, rng.randint(1, 10), pool), vocab)
        t2 = build_tree(random_tree_spec(rng, rng.randint(1, 10), pool), vocab)
        p = tree_to_polynomial(t1, vocab)
        q = tree_to_polynomial(t2, vocab)
        d_pq = poly_distance(p, q)
        assert d_pq == poly_distance(q, p)
        assert poly_distance(p, q, ones) == d_pq
        d_weighted = poly_distance(p, q, weights)
        assert d_weighted == poly_distance(q, p, weights)
        assert d_weighted >= d_pq
        if pool is plain_labels:
            assert d_weighted == d_pq


def brute_force_distance(p, q, w):
    """Chamfer-style distance as a no-numpy double loop over the rows."""
    rows_p = full_rows(p).tolist()
    rows_q = full_rows(q).tolist()
    def d1(s, t):
        return sum(abs(a - b) * wi for a, b, wi in zip(s, t, w))
    total = sum(min(d1(s, t) for t in rows_q) for s in rows_p)
    total += sum(min(d1(s, t) for s in rows_p) for t in rows_q)
    return total / (len(rows_p) + len(rows_q))


def test_distance_brute_force_oracle():
    """Chamfer-style distance against a no-numpy double-loop oracle."""
    rng = random.Random(31)
    labels = ["a", "b", "S"]
    vocab = LabelVocab(labels)
    weights = WeightProfile.error_weighted(vocab, 2.0)

    for _ in range(200):
        t1 = build_tree(random_tree_spec(rng, rng.randint(1, 8), labels), vocab)
        t2 = build_tree(random_tree_spec(rng, rng.randint(1, 8), labels), vocab)
        p = tree_to_polynomial(t1, vocab)
        q = tree_to_polynomial(t2, vocab)
        assert poly_distance(p, q) == pytest.approx(brute_force_distance(p, q, [1.0] * 7), abs=1e-12)
        assert poly_distance(p, q, weights) == pytest.approx(
            brute_force_distance(p, q, list(weights.weights)), abs=1e-12)


def pinned_distance(p, q, weights, block_entries=4_000_000):
    """The union-column distance as it was before polynomials cached their support.

    It works on full-width rows. Every pair goes through the block loop,
    blocks of about `block_entries` entries, each block's minima merged with
    np.minimum.
    """
    w = None
    if weights is not None and not np.all(weights.weights == 1.0):
        w = weights.weights
    rows_p, rows_q = full_rows(p), full_rows(q)
    cols = np.flatnonzero(rows_p.any(axis=0) | rows_q.any(axis=0))
    big, small = rows_p[:, cols], rows_q[:, cols]
    if w is not None:
        w = w[cols]
    m, n, width = big.shape[0], small.shape[0], big.shape[1]
    if w is None:
        row_min = np.full(m, np.iinfo(np.int64).max, dtype=np.int64)
        col_min = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    else:
        row_min = np.full(m, np.inf)
        col_min = np.full(n, np.inf)
    block = max(1, int((block_entries // width) ** 0.5))
    for i0 in range(0, m, block):
        a = big[i0 : i0 + block]
        for j0 in range(0, n, block):
            b = small[j0 : j0 + block]
            diffs = np.abs(a[:, None, :] - b[None, :, :])
            dist = diffs.sum(axis=2) if w is None else (diffs * w).sum(axis=2)
            np.minimum(row_min[i0 : i0 + block], dist.min(axis=1), out=row_min[i0 : i0 + block])
            np.minimum(col_min[j0 : j0 + block], dist.min(axis=0), out=col_min[j0 : j0 + block])
    if w is None:
        total = float(int(row_min.sum(dtype=object)) + int(col_min.sum(dtype=object)))
    else:
        total = float(row_min.sum() + col_min.sum())
    return total / (len(p) + len(q))


def test_poly_distance_matches_brute_force_per_pair(monkeypatch):
    """Bit for bit the pinned union-column formula, blocked or not, for every weight.

    Where the sums are exact (no weights, or the dyadic 2.0) that is also
    the double loop's value, blocked or not; with 0.3 the order of the
    additions, which numpy picks by the shape of a block, can show in the
    last bits.
    """
    rng = random.Random(41)
    # enough labels that a pair's union of columns often passes 8, where
    # numpy's pairwise summation and a plain running sum part ways
    labels = ["r", "a", "b", "c", "d", "S", "R", "M"]
    vocab = LabelVocab(labels)
    profiles = [(None, [1] * (2 * len(vocab) + 1), True)]
    for weight, dyadic in ((2.0, True), (0.3, False)):
        profile = WeightProfile.error_weighted(vocab, weight)
        profiles.append((profile, list(profile.weights), dyadic))

    def random_poly():
        spec = random_tree_spec(rng, rng.randint(1, 9), labels)
        return tree_to_polynomial(build_tree(spec, vocab), vocab)

    for _ in range(20):
        query = random_poly()
        candidates = [random_poly() for _ in range(rng.randint(1, 8))]
        for weights, ws, dyadic in profiles:
            for candidate in candidates:
                value = poly_distance(query, candidate, weights)
                # blocks of a few entries split both term sets
                block_entries = rng.randint(1, 40)
                monkeypatch.setattr(treepoly, "_BLOCK_ENTRIES", block_entries)
                blocked = poly_distance(query, candidate, weights)
                monkeypatch.undo()
                pinned = pinned_distance(query, candidate, weights)
                pinned_blocked = pinned_distance(query, candidate, weights, block_entries)
                assert value.hex() == pinned.hex()
                assert blocked.hex() == pinned_blocked.hex()
                want = brute_force_distance(query, candidate, ws)
                if dyadic:
                    assert value == blocked == want
                else:
                    assert value == pytest.approx(want, rel=1e-12)
                    assert blocked == pytest.approx(want, rel=1e-12)


def test_int64_distance_sums_do_not_wrap():
    big = 2**62 - 1  # still int64 rows
    p = make_poly(2, {(1, 0, 0, 0): big, (0, 1, 0, 0): big, (0, 0, 1, 0): big, (0, 0, 0, 1): big})
    q = make_poly(2, {(1, 1, 1, 1): 1})
    assert p.rows.dtype == np.int64
    want = brute_force_distance(p, q, [1] * 5)
    assert want * 5 > 2**63  # the summed distances pass the int64 range
    assert poly_distance(p, q) == want
    assert poly_distance(q, p) == want


def test_polynomial_refuses_coefficients_from_2_62():
    below = make_poly(1, {(1, 0): 2**62 - 1, (0, 1): 1})
    assert below.rows.dtype == np.int64 and full_rows(below)[0, -1] == 2**62 - 1
    with pytest.raises(TermBudgetExceeded):
        make_poly(1, {(1, 0): 2**62, (0, 1): 1})


def test_polynomial_and_weights_are_read_only():
    poly = make_poly(2, {(1, 0, 0, 0): 3, (0, 0, 1, 0): 1})  # 3 x_1 + y_1
    assert poly.support.tolist() == [True, False, True, False, True]
    assert poly.rows.tolist() == [[1, 0, 3, 0], [0, 1, 1, 0]]
    assert poly.slot.tolist() == [0, 3, 1, 3, 2]
    given = np.array([1.0, 2.0, 1.0])
    profile = WeightProfile(given)
    assert not profile.uniform and WeightProfile(np.ones(3)).uniform
    vocab = LabelVocab()
    tree_poly = tree_to_polynomial(build_tree(node("r", leaf("a")), vocab), vocab)
    for array in (poly.rows, poly.support, poly.slot, tree_poly.rows, tree_poly.support,
                  tree_poly.slot, profile.weights):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    given[1] = 1.0  # the profile holds its own copy; the caller's array stays writable
    assert not profile.uniform and profile.weights[1] == 2.0


def test_weight_profile_validation():
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite numbers > 0"):
            WeightProfile(np.array([1.0, bad, 1.0]))
