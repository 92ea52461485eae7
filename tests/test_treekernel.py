import random
from math import fsum, isfinite

import numpy as np

from synicl.treebank import DepNode, DepTree, LabelVocab, load_bundle, parse_conllu, save_bundle
from synicl.treekernel import PoolForest, tree_kernel_similarity

from conftest import (build_tree, graph, leaf, make_synth_corpus, node, random_tree_spec,
                      tree_to_conllu)


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
    assert kernel_oracle(graph(a), graph(b)) == 0.25


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
        assert tree_kernel_similarity(t1, t2) == kernel_oracle(graph(t1), graph(t2))


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
        want = kernel_oracle(graph(t1), graph(t2))
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


def test_star_tree_products_do_not_wrap():
    # one root over n leaves of one label: its leaf product and its child-count
    # product are both n**2, past the dtype the forest stores its counts in, the
    # narrowest signed one that holds the tree's token count: 1e4 past int8 and
    # 2.5e9 past int32
    vocab = LabelVocab()
    for n, count_type in ((100, np.int8), (50_000, np.int32)):
        leaves = [DepNode(i, f"w{i}", vocab.add("a")) for i in range(2, n + 2)]
        star = DepTree(DepNode(1, "r", vocab.add("root"), leaves), n + 1)
        assert star.forest.n_children.dtype == star.forest.group_leaves.dtype == count_type
        score = tree_kernel_similarity(star, star)
        assert type(score) is float and score == 1.0
        pool = PoolForest([star])
        assert pool.scores([star], [np.array([0])]).tolist() == [1.0]
        # in a block, beside a one-leaf query and a query with no candidates
        lone = DepTree(DepNode(1, "r", vocab.add("root"), [DepNode(2, "w", vocab.add("b"))]), 2)
        assert pool.scores([lone, star, star], [np.array([0]), np.array([], np.intp),
                                                np.array([0, 0])]).tolist() == [0.0, 1.0, 1.0]


FOREST_ARRAYS = ("group_start", "group_label", "group_leaves", "kid_start", "kids",
                 "n_children", "roots")


def test_pool_of_one_forest_shares_its_arrays(tmp_path):
    vocab = LabelVocab()
    save_bundle(make_synth_corpus(60, seed=21, max_tokens=12, vocab=vocab), str(tmp_path / "b"))
    loaded = load_bundle(str(tmp_path / "b"))
    parsed = parse_conllu("\n\n".join(tree_to_conllu(ex.tree, loaded.vocab)
                                        for ex in loaded.examples), loaded.vocab)
    for trees in ([ex.tree for ex in loaded.examples], parsed, parsed[::-1]):
        pool = PoolForest(trees)
        assert pool.forest is trees[0].forest
        for name in FOREST_ARRAYS:
            assert np.shares_memory(getattr(pool.forest, name), getattr(trees[0].forest, name))
        ids = np.arange(len(trees))
        want = [tree_kernel_similarity(trees[5], tree) for tree in trees]
        assert pool.scores([trees[5]], [ids]).tolist() == want
    # trees of several forests (here a bundle, one-tree graphs and parsed text) are
    # joined into a new one
    graphs = make_synth_corpus(20, seed=22, max_tokens=12, vocab=loaded.vocab)
    mixed = ([ex.tree for ex in loaded.examples[:30]] + [ex.tree for ex in graphs.examples]
             + parsed[30:])
    pool = PoolForest(mixed)
    for name in FOREST_ARRAYS:
        assert not np.shares_memory(getattr(pool.forest, name), getattr(parsed[0].forest, name))
    for query in (parsed[7], graphs[3].tree):
        want = [tree_kernel_similarity(query, tree) for tree in mixed]
        assert pool.scores([query], [np.arange(len(mixed))]).tolist() == want


def test_block_of_queries_from_several_forests_equals_kernel_per_pair(tmp_path):
    vocab = LabelVocab()
    save_bundle(make_synth_corpus(80, seed=31, min_tokens=1, max_tokens=20, vocab=vocab),
                str(tmp_path / "b"))
    loaded = load_bundle(str(tmp_path / "b"), vocab)
    graphs = make_synth_corpus(15, seed=32, min_tokens=1, max_tokens=20, vocab=vocab)
    parsed = parse_conllu("\n\n".join(tree_to_conllu(ex.tree, vocab)
                                        for ex in graphs.examples), vocab)
    pool = PoolForest([ex.tree for ex in loaded.examples])
    # a bundle's trees, one-tree graphs and parsed text, one query repeated, and a
    # label the pool never saw; candidates in any order, repeated, or none at all
    unseen = build_tree(node("root", leaf("unseen"), node("nsubj", leaf("unseen"))), vocab)
    queries = ([ex.tree for ex in loaded.examples[40:55]] + [ex.tree for ex in graphs.examples]
               + parsed + [loaded[3].tree, unseen, loaded[3].tree])
    rng = np.random.default_rng(33)
    ids = [rng.integers(0, len(loaded), rng.integers(1, 60)) for _ in queries]
    ids[20] = np.array([], np.intp)
    assert vocab.labels.index("unseen") >= pool.width
    got = pool.scores(queries, ids)
    want = [tree_kernel_similarity(query, loaded[i].tree)
            for query, each in zip(queries, ids) for i in each.tolist()]
    assert got.dtype == np.float64 and [s.hex() for s in got.tolist()] == [s.hex() for s in want]
    # each query's segment is what a block of that query alone gives
    ends = np.cumsum([len(each) for each in ids])
    for query, each, end in zip(queries, ids, ends):
        alone = pool.scores([query], [each])
        assert alone.tobytes() == got[end - len(each): end].tobytes()
    assert pool.scores([], []).tolist() == []
