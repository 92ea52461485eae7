import math
import random
from collections import defaultdict

import numpy as np
import pytest

from synicl import treepoly
from synicl.treebank import LabelVocab
from synicl.treepoly import (
    EmptyPolynomial,
    Polynomial,
    TermBudgetExceeded,
    WeightProfile,
    poly_distance,
    tree_to_polynomial,
)

from conftest import build_tree, leaf, node, random_tree_spec


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


def terms(poly):
    """The polynomial's rows as an exponent-tuple -> coefficient dict."""
    return {tuple(row[:-1]): row[-1] for row in poly.rows.tolist()}


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


def make_poly(d, coeffs_by_exps):
    exps = np.array(list(coeffs_by_exps), dtype=np.int64).reshape(len(coeffs_by_exps), 2 * d)
    return Polynomial(d, exps, list(coeffs_by_exps.values()))


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
# distance
# ---------------------------------------------------------------------------

def test_distance_identical_is_zero():
    vocab = LabelVocab()
    tree = build_tree(node("r", leaf("a"), node("b", leaf("c"))), vocab)
    poly = tree_to_polynomial(tree, vocab)
    assert poly_distance(poly, poly) == 0.0
    assert poly_distance(poly, poly, WeightProfile(np.ones(2 * vocab.d + 1))) == 0.0


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
    ones = WeightProfile(np.ones(2 * vocab.d + 1))
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
    rows_p = p.rows.tolist()
    rows_q = q.rows.tolist()
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


def test_poly_distance_matches_brute_force_per_pair(monkeypatch):
    """Bitwise equal to the double loop, blocked or not, wherever the sums are exact."""
    rng = random.Random(41)
    labels = ["r", "a", "b", "S", "R"]
    vocab = LabelVocab(labels)
    profiles = [(None, [1] * (2 * vocab.d + 1), True)]
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
                monkeypatch.setattr(treepoly, "_BLOCK_ENTRIES", rng.randint(1, 40))
                blocked = poly_distance(query, candidate, weights)
                monkeypatch.undo()
                want = brute_force_distance(query, candidate, ws)
                if not dyadic:
                    # sums with 0.3 are rounded, so the order of the additions
                    # can show in the last bits
                    assert value == pytest.approx(want, rel=1e-12)
                    assert blocked == pytest.approx(want, rel=1e-12)
                else:
                    assert value == want == blocked  # bit for bit


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
    assert below.rows.dtype == np.int64 and below.rows[0, -1] == 2**62 - 1
    with pytest.raises(TermBudgetExceeded):
        make_poly(1, {(1, 0): 2**62, (0, 1): 1})


def test_weight_profile_validation():
    with pytest.raises(ValueError):
        WeightProfile(np.array([1.0, 0.0, 1.0]))
