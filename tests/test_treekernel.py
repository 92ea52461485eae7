import random
from math import fsum, isfinite

from synicl.treebank import LabelVocab, load_bundle, parse_conllu, save_bundle
from synicl.treekernel import tree_kernel_similarity

from conftest import build_tree, leaf, make_synth_corpus, node, random_tree_spec, tree_to_conllu


def kernel_oracle(a, b):
    """Literal transcription of the recursive child-pair kernel.

    Plain double loop over all child pairs; exact summation of the matched
    contributions; child count (or 1) as the normalizer.
    """
    contributions = []
    for ni in a.children:
        for nj in b.children:
            if ni.label == nj.label:
                if not ni.children and not nj.children:
                    contributions.append(1.0)
                elif ni.children and nj.children:
                    contributions.append(kernel_oracle(ni, nj))
    size_a = len(a.children) if a.children else 1
    size_b = len(b.children) if b.children else 1
    return fsum(contributions) / (size_a * size_b)


def test_one_shared_leaf_over_two_by_two():
    vocab = LabelVocab()
    a = build_tree(node("r", leaf("x"), leaf("y")), vocab)
    b = build_tree(node("r", leaf("x"), leaf("z")), vocab)
    assert tree_kernel_similarity(a, b) == 0.25
    assert kernel_oracle(a.root, b.root) == 0.25


def test_nested_identical_chain():
    vocab = LabelVocab()
    a = build_tree(node("r", node("m", leaf("x"))), vocab)
    b = build_tree(node("r", node("m", leaf("x"))), vocab)
    assert tree_kernel_similarity(a, b) == 1.0


def test_disjoint_labels_score_zero():
    vocab = LabelVocab()
    a = build_tree(node("r", leaf("a"), node("b", leaf("c"))), vocab)
    b = build_tree(node("q", leaf("d"), node("e", leaf("f"))), vocab)
    assert tree_kernel_similarity(a, b) == 0.0


def test_single_node_root_scores_zero():
    vocab = LabelVocab()
    lone = build_tree(leaf("r"), vocab)
    other = build_tree(node("r", leaf("x"), leaf("y")), vocab)
    assert tree_kernel_similarity(lone, other) == 0.0
    assert tree_kernel_similarity(other, lone) == 0.0


def test_self_similarity_positive_and_stable():
    vocab = LabelVocab()
    tree = build_tree(
        node("Root", leaf("cc"), leaf("expl"), node("nsubj", leaf("det")), leaf("punct")),
        vocab,
    )
    first = tree_kernel_similarity(tree, tree)
    assert first > 0.0
    assert tree_kernel_similarity(tree, tree) == first


def test_leaf_vs_nonleaf_same_label_contributes_zero():
    vocab = LabelVocab()
    a = build_tree(node("r", leaf("m")), vocab)
    b = build_tree(node("r", node("m", leaf("x"))), vocab)
    assert tree_kernel_similarity(a, b) == 0.0


def test_oracle_equivalence_random_trees():
    rng = random.Random(42)
    labels = ["a", "b", "c", "d"]
    for _ in range(2000):
        vocab = LabelVocab()
        t1 = build_tree(random_tree_spec(rng, rng.randint(1, 8), labels), vocab)
        t2 = build_tree(random_tree_spec(rng, rng.randint(1, 8), labels), vocab)
        assert tree_kernel_similarity(t1, t2) == kernel_oracle(t1.root, t2.root)


def test_symmetry_nonnegativity_finiteness():
    rng = random.Random(7)
    labels = ["a", "b", "c", "d"]
    for _ in range(2000):
        vocab = LabelVocab()
        t1 = build_tree(random_tree_spec(rng, rng.randint(1, 8), labels), vocab)
        t2 = build_tree(random_tree_spec(rng, rng.randint(1, 8), labels), vocab)
        s12 = tree_kernel_similarity(t1, t2)
        s21 = tree_kernel_similarity(t2, t1)
        assert s12 == s21
        assert s12 >= 0.0 and isfinite(s12)


def relabel_spec(spec, mapping):
    label, children = spec
    return (mapping[label], [relabel_spec(c, mapping) for c in children])


def test_relabel_invariance():
    rng = random.Random(99)
    labels = ["a", "b", "c", "d"]
    permuted = ["p", "q", "r", "s"]
    for _ in range(500):
        spec1 = random_tree_spec(rng, rng.randint(1, 8), labels)
        spec2 = random_tree_spec(rng, rng.randint(1, 8), labels)
        mapping = dict(zip(labels, rng.sample(permuted, len(permuted))))
        vocab = LabelVocab()
        base = tree_kernel_similarity(build_tree(spec1, vocab), build_tree(spec2, vocab))
        vocab2 = LabelVocab()
        mapped = tree_kernel_similarity(
            build_tree(relabel_spec(spec1, mapping), vocab2),
            build_tree(relabel_spec(spec2, mapping), vocab2),
        )
        assert base == mapped


def assert_kernel_equals_oracle_bitwise(pairs):
    for t1, t2 in pairs:
        want = kernel_oracle(t1.root, t2.root)
        assert tree_kernel_similarity(t1, t2).hex() == want.hex()
        assert tree_kernel_similarity(t2, t1).hex() == want.hex()


def test_forest_kernel_equals_oracle_within_and_across_forests(tmp_path):
    vocab = LabelVocab()
    corpora = [make_synth_corpus(150, seed=seed, min_tokens=1, max_tokens=25, vocab=vocab)
               for seed in (11, 12)]
    for i, corpus in enumerate(corpora):
        save_bundle(corpus, str(tmp_path / f"b{i}"))
    one, two = (load_bundle(str(tmp_path / f"b{i}"), vocab) for i in range(2))  # same label ids
    assert one[0].tree.forest is one[1].tree.forest is not two[0].tree.forest
    rng = random.Random(5)
    idx = list(range(150))
    within = [(one[rng.choice(idx)].tree, one[rng.choice(idx)].tree) for _ in range(300)]
    across = [(one[rng.choice(idx)].tree, two[rng.choice(idx)].tree) for _ in range(300)]
    graphs = [(corpora[0][rng.choice(idx)].tree, corpora[1][rng.choice(idx)].tree)
              for _ in range(300)]
    mixed = [(corpora[0][i].tree, one[i].tree) for i in idx]  # a graph and its loaded copy
    assert_kernel_equals_oracle_bitwise(within + across + graphs + mixed)
    assert all(tree_kernel_similarity(a, b) == tree_kernel_similarity(a, a) for a, b in mixed)


def test_forest_kernel_equals_oracle_on_parsed_blocks():
    rng = random.Random(6)
    labels = ["a", "b", "c"]
    vocab = LabelVocab()
    graphs = [build_tree(random_tree_spec(rng, rng.randint(1, 14), labels), vocab)
              for _ in range(200)]
    parsed = parse_conllu("\n\n".join(tree_to_conllu(t, vocab) for t in graphs), vocab)
    assert len({id(t.forest) for t in parsed}) == 1
    pairs = [(rng.choice(parsed), rng.choice(parsed)) for _ in range(1000)]
    assert_kernel_equals_oracle_bitwise(pairs + list(zip(graphs, parsed)))
