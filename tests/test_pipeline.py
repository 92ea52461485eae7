import itertools
import json
import math
import random

import numpy as np
import pytest

from synicl import lexical, pipeline, treekernel, treepoly
from synicl.pipeline import (
    BatchSelectionError,
    InvalidConfig,
    MissingPrecomputation,
    SelectionConfig,
    MalformedSelection,
    Selector,
    export_results,
    load_results,
)
from synicl.treebank import Corpus, Example, LabelVocab, load_bundle, save_bundle

from conftest import build_tree, graph, leaf, node, make_synth_corpus, random_tree_spec


def toy_corpus(specs, vocab=None):
    vocab = vocab if vocab is not None else LabelVocab()
    examples = []
    for i, spec in enumerate(specs):
        tree = build_tree(spec, vocab, sentence_id=i)
        tokens = [f"s{i}w{j}" for j in range(tree.n_tokens)]
        examples.append(
            Example(id=i, source=" ".join(tokens), target=" ".join(tokens), tree=tree)
        )
    return Corpus(examples=examples, vocab=vocab)


def random_corpus(n, seed, vocab, labels, max_nodes=8):
    rng = random.Random(seed)
    return toy_corpus([random_tree_spec(rng, rng.randint(1, max_nodes), labels) for _ in range(n)],
                      vocab)


def query_example(spec, vocab, qid=0):
    tree = build_tree(spec, vocab, sentence_id=qid)
    tokens = [f"q{qid}w{j}" for j in range(tree.n_tokens)]
    return Example(id=qid, source=" ".join(tokens), target=" ".join(tokens), tree=tree)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_validation():
    SelectionConfig().validate()
    with pytest.raises(InvalidConfig):
        SelectionConfig(stage1="none", stage2="none").validate()
    with pytest.raises(InvalidConfig):
        SelectionConfig(stage1="bogus").validate()
    with pytest.raises(InvalidConfig):
        SelectionConfig(stage2="bogus").validate()
    with pytest.raises(InvalidConfig):
        SelectionConfig(shots=0).validate()
    with pytest.raises(InvalidConfig):
        SelectionConfig(shots=8, candidate_size=4).validate()
    for weight in (0.0, -1.0, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(InvalidConfig, match="error_weight must be a finite number > 0"):
            SelectionConfig(error_weight=weight).validate()


@pytest.mark.parametrize("weight", ["2", True])
def test_config_refuses_an_error_weight_that_is_not_a_real_number(weight):
    # a string raised a raw TypeError inside math.isfinite, and True weighed 1.0
    with pytest.raises(InvalidConfig, match="error_weight must be a finite number > 0"):
        SelectionConfig(error_weight=weight).validate()


@pytest.mark.parametrize("seed", [2.5, "x", 2.0, True])
def test_config_refuses_a_random_seed_that_is_not_an_int(seed):
    # the seed is formatted into each query's random.Random seed, where 2.0 is not 2
    with pytest.raises(InvalidConfig, match="random_seed must be an int"):
        SelectionConfig(random_seed=seed).validate()


@pytest.mark.parametrize("budget", [0, -5, 2.5, float("inf"), True, False, "100"])
def test_config_refuses_a_term_budget_that_is_not_a_positive_int(budget):
    # a budget below 1 refuses every pool polynomial, and every query then
    # falls back to the tree kernel without a word
    with pytest.raises(InvalidConfig, match="term_budget must be None or an int >= 1"):
        SelectionConfig(term_budget=budget).validate()


@pytest.mark.parametrize("name", ["shots", "candidate_size"])
@pytest.mark.parametrize("value", [10.5, 2.5, True, False, "4"])
def test_config_refuses_sizes_that_are_not_ints(name, value):
    # a float would fail later inside np.partition or a slice, and True would count as 1
    config = SelectionConfig(shots=1, candidate_size=1000)
    setattr(config, name, value)
    with pytest.raises(InvalidConfig, match=f"{name} must be an int >= 1"):
        config.validate()


def test_config_accepts_no_term_budget_or_a_positive_int():
    for budget in (None, 1, treepoly.DEFAULT_TERM_BUDGET):
        SelectionConfig(term_budget=budget).validate()


def test_defaults_match_documented_values():
    config = SelectionConfig()
    assert config.candidate_size == 1000
    assert config.shots == 4
    assert config.error_weight == 2.0


# ---------------------------------------------------------------------------
# selection behavior
# ---------------------------------------------------------------------------

def test_stage1_passthrough_when_stage2_none():
    corpus = make_synth_corpus(50, seed=5)
    query = make_synth_corpus(1, seed=99, vocab=corpus.vocab)[0]
    config = SelectionConfig(stage1="bm25", stage2="none", candidate_size=50, shots=4)
    result = Selector(corpus, config).select(query)
    index = lexical.build_bm25(corpus)
    assert result.chosen == lexical.bm25_topk(index, query.source, 4)
    assert result.stage1_pool_size == 50


def test_two_stage_equals_single_stage_when_pool_covers_corpus():
    vocab = LabelVocab()
    labels = ["Root", "a", "b", "S"]
    corpus = random_corpus(40, 1, vocab, labels)
    query = query_example(random_tree_spec(random.Random(2), 6, labels), vocab, qid=0)
    for stage2 in ("tree_kernel", "poly", "weighted_poly"):
        two = SelectionConfig(stage1="bm25", stage2=stage2, candidate_size=40, shots=4)
        one = SelectionConfig(stage1="none", stage2=stage2, candidate_size=40, shots=4)
        chosen_two = Selector(corpus, two).select(query).chosen
        chosen_one = Selector(corpus, one).select(query).chosen
        assert chosen_two == chosen_one


@pytest.mark.parametrize("ids", [[0, 0, 1], [10, 11, 12]], ids=["repeated", "past-the-pool"])
@pytest.mark.parametrize("stage2", ["tree_kernel", "weighted_poly", "random"])
def test_stage1_none_ranks_pool_positions_whatever_the_example_ids(ids, stage2):
    # chosen ids are positions in the pool, as bm25_topk and dense_topk return them
    specs = [node("Root", leaf("a")), leaf("Root"), node("Root", leaf("b"), leaf("a"))]
    corpus = toy_corpus(specs)
    query = query_example(node("Root", leaf("a")), corpus.vocab)
    config = SelectionConfig(stage1="none", stage2=stage2, candidate_size=3, shots=3)
    expected = Selector(corpus, config).select(query)
    assert sorted(expected.chosen_ids()) == [0, 1, 2]
    for ex, ex_id in zip(corpus.examples, ids):
        ex.id = ex_id
    assert Selector(corpus, config).select(query) == expected


def test_poly_ranking_matches_exhaustive_oracle():
    vocab = LabelVocab()
    labels = ["Root", "a", "b", "c", "S"]
    corpus = random_corpus(10, 3, vocab, labels)
    query = query_example(random_tree_spec(random.Random(4), 6, labels), vocab)
    qpoly = treepoly.tree_to_polynomial(query.tree, vocab)
    for stage2, weights in (("poly", None),
                            ("weighted_poly", treepoly.WeightProfile.error_weighted(vocab, 2.0))):
        config = SelectionConfig(stage1="none", stage2=stage2, candidate_size=10, shots=10)
        result = Selector(corpus, config).select(query)
        oracle = []
        for ex in corpus.examples:
            poly = treepoly.tree_to_polynomial(ex.tree, vocab)
            oracle.append((ex.id, treepoly.poly_distance(qpoly, poly, weights)))
        oracle.sort(key=lambda item: (item[1], item[0]))
        assert result.chosen == oracle


def test_pool_polynomials_store_only_their_support():
    # a memory guard: on this 45-label vocab full-width rows would hold 91
    # columns a term; a tree's support has at most one entry a node, plus
    # the coefficient, and its rows one column more
    corpus = make_synth_corpus(200, seed=6, max_tokens=12)
    config = SelectionConfig(stage1="none", stage2="weighted_poly", candidate_size=10, shots=4)
    polynomials = Selector(corpus, config).polynomials
    assert len(polynomials) == len(corpus) and None not in polynomials
    for ex, poly in zip(corpus.examples, polynomials):
        assert poly.rows.shape[1] == poly.support.sum() + 1 <= ex.tree.n_tokens + 2


def test_tree_kernel_ranking_matches_exhaustive_oracle():
    vocab = LabelVocab()
    labels = ["Root", "a", "b", "S"]
    corpus = random_corpus(12, 8, vocab, labels)
    query = query_example(random_tree_spec(random.Random(9), 7, labels), vocab)
    config = SelectionConfig(stage1="none", stage2="tree_kernel", candidate_size=12, shots=12)
    result = Selector(corpus, config).select(query)
    oracle = [
        (ex.id, treekernel.tree_kernel_similarity(query.tree, ex.tree))
        for ex in corpus.examples
    ]
    oracle.sort(key=lambda item: (-item[1], item[0]))
    assert result.chosen == oracle


def kernel_selectors(corpus):
    """A tree-kernel Selector over the whole corpus and one over a BM25 third of it.

    `shots` equals the pool size, so `chosen` holds every candidate's score.
    """
    n = len(corpus)
    return [Selector(corpus, SelectionConfig(stage1=stage1, stage2="tree_kernel",
                                             candidate_size=size, shots=size))
            for stage1, size in (("none", n), ("bm25", n // 3))]


def nested_shape(a, b):
    """(depth, most nested values) of the kernel's recursion under DepNodes `a` and `b`.

    Depth 0: the pair has no equal-label internal children. The second item
    is the largest number of nested scores any pair down there sums.
    """
    nested = [nested_shape(ka, kb) for ka in a.children for kb in b.children
              if ka.label == kb.label and ka.children and kb.children]
    if not nested:
        return 0, 0
    return 1 + max(depth for depth, _ in nested), max([len(nested)] + [n for _, n in nested])


def assert_stage2_kernel_scores_bitwise(selectors, queries):
    """Every stage-II score has the bits of tree_kernel_similarity, for every candidate.

    Also checks `select_batch(jobs=2)` against one `select` at a time, and
    that the pairs reach two levels below the roots and sum several nested
    scores with `fsum`.
    """
    shapes = []
    for selector in selectors:
        results = [selector.select(query) for query in queries]
        assert selector.select_batch(queries, jobs=2) == results
        for query, result in zip(queries, results):
            pool = sorted(selector._stage1_ids(query).tolist())
            assert sorted(ex_id for ex_id, _ in result.chosen) == pool
            for ex_id, score in result.chosen:
                tree = selector.corpus[ex_id].tree
                want = treekernel.tree_kernel_similarity(query.tree, tree)
                assert score.hex() == want.hex(), (query.id, ex_id)
                shapes.append(nested_shape(graph(query.tree), graph(tree)))
    assert min(shapes) == (0, 0)  # some pairs end at the root
    assert max(depth for depth, _ in shapes) >= 2
    assert max(most for _, most in shapes) >= 2


def test_tree_kernel_level_pass_equals_kernel_on_bundles(tmp_path):
    vocab = LabelVocab()
    for seed, out in ((61, "train"), (62, "test")):
        save_bundle(make_synth_corpus(240, seed=seed, min_tokens=1, max_tokens=25, vocab=vocab),
                    str(tmp_path / out))
    shared = LabelVocab()
    train = load_bundle(str(tmp_path / "train"), shared)
    test = load_bundle(str(tmp_path / "test"), shared)
    assert train[0].tree.forest is train[1].tree.forest
    assert any(ex.tree.n_tokens == 1 for ex in train.examples)
    singles = [ex for ex in test.examples if ex.tree.n_tokens == 1]
    assert singles
    assert_stage2_kernel_scores_bitwise(kernel_selectors(train), test.examples[:60] + singles)


def test_tree_kernel_level_pass_equals_kernel_on_hand_built_trees():
    vocab = LabelVocab()
    labels = ["a", "b", "c", "d"]
    rng = random.Random(63)
    corpus = toy_corpus(
        [leaf("a"), leaf("b"), node("r", leaf("a"), leaf("a"), node("a", leaf("b")))]
        + [random_tree_spec(rng, rng.randint(1, 9), labels) for _ in range(90)],
        vocab,
    )
    assert len({id(ex.tree.forest) for ex in corpus.examples}) == len(corpus)
    selectors = kernel_selectors(corpus)
    specs = [
        leaf("a"),  # a single token
        node("r", leaf("a"), leaf("b"), leaf("a")),  # a root with leaf children only
        node("r", node("a", leaf("b")), node("c", leaf("a"), node("d", leaf("a")))),  # internal only
        node("r", leaf("a"), node("a", leaf("a"), leaf("b")), leaf("d")),
        # labels first seen after the Selectors were built
        node("r", leaf("new"), leaf("a")),
        node("r", node("newer", leaf("a")), leaf("new"), node("b", leaf("c"))),
        node("newest", node("a", leaf("newer")), leaf("b")),
    ] + [random_tree_spec(rng, 7, labels) for _ in range(20)]
    queries = [query_example(spec, vocab, qid) for qid, spec in enumerate(specs)]
    assert vocab.labels.index("new") >= selectors[0].kernel_pool.width
    assert_stage2_kernel_scores_bitwise(selectors, queries)


def test_tree_kernel_level_pass_sums_nested_scores_exactly():
    vocab = LabelVocab()
    # the roots' "a" children score 3/7 and 29/56 and their "b" leaves match twice:
    # (3/7 + 29/56 + 2) / (4 * 2) is not correctly rounded in any order of plain addition
    first, second = node("a", *[leaf("y")] * 3), node("a", *[leaf("x")] * 5, *[leaf("y")] * 3)
    pool_a = node("a", *[leaf("x")] * 4, *[leaf("y")] * 3)
    corpus = toy_corpus([node("r", pool_a, leaf("b")), node("r", leaf("b"), leaf("y"))], vocab)
    query = query_example(node("r", first, second, leaf("b"), leaf("b")), vocab)
    nested = [treekernel.tree_kernel_similarity(build_tree(child, vocab), build_tree(pool_a, vocab))
              for child in (first, second)]
    assert nested == [3 / 7, 29 / 56]
    want = treekernel.tree_kernel_similarity(query.tree, corpus[0].tree)
    assert want == math.fsum(nested + [2]) / 8
    for order in itertools.permutations(nested + [2.0]):
        assert (order[0] + order[1] + order[2]) / 8 != want
    config = SelectionConfig(stage1="none", stage2="tree_kernel", candidate_size=2, shots=2)
    chosen = Selector(corpus, config).select(query).chosen
    assert [(ex_id, score.hex()) for ex_id, score in chosen] == [
        (0, want.hex()), (1, (2 / 8).hex())]


def test_stage2_ties_go_to_lower_id_whatever_the_stage1_order():
    vocab = LabelVocab()
    twin = node("Root", node("a", leaf("b")), leaf("S"))
    corpus = toy_corpus([twin, twin, node("Root", leaf("a")), twin], vocab)
    # example 3 shares every word with the query, example 1 one word and 0 none,
    # so BM25 hands the three identical trees to stage II with the higher ids first
    words = corpus[3].source.split()
    corpus.examples[1].source = f"{words[0]} x y z"
    query = query_example(twin, vocab, qid=9)
    query.source = " ".join(words)
    for stage2, shots in itertools.product(("tree_kernel", "poly"), (2, 4)):
        config = SelectionConfig(stage1="bm25", stage2=stage2, candidate_size=4, shots=shots)
        selector = Selector(corpus, config)
        stage1_ids = [i for i, _ in lexical.bm25_topk(selector.bm25, query.source, 4)]
        assert stage1_ids[:3] == [3, 1, 0]
        chosen = selector.select(query).chosen
        assert [ex_id for ex_id, _ in chosen] == [0, 1, 3, 2][:shots]
        assert len({score for _, score in chosen[:2]}) == 1
        assert all(type(ex_id) is int and type(score) is float for ex_id, score in chosen)


def test_chosen_ids_come_from_stage1_pool():
    corpus = make_synth_corpus(100, seed=6)
    queries = make_synth_corpus(5, seed=60, vocab=corpus.vocab)
    config = SelectionConfig(stage1="bm25", stage2="tree_kernel", candidate_size=10, shots=4)
    selector = Selector(corpus, config)
    index = lexical.build_bm25(corpus)
    for query in queries.examples:
        result = selector.select(query)
        pool = {i for i, _ in lexical.bm25_topk(index, query.source, 10)}
        assert set(result.chosen_ids()) <= pool
        assert len(result.chosen) == 4
        assert len(set(result.chosen_ids())) == 4


def test_enlarging_pool_never_worsens_best_score():
    corpus = make_synth_corpus(200, seed=13, max_tokens=12)
    queries = make_synth_corpus(6, seed=14, vocab=corpus.vocab, max_tokens=12)
    for stage2, better in (("tree_kernel", lambda a, b: a >= b), ("poly", lambda a, b: a <= b)):
        prev_best = {}
        for size in (4, 20, 100, 200):
            config = SelectionConfig(stage1="bm25", stage2=stage2, candidate_size=size, shots=4)
            selector = Selector(corpus, config)
            for query in queries.examples:
                best = selector.select(query).chosen[0][1]
                if query.id in prev_best:
                    assert better(best, prev_best[query.id])
                prev_best[query.id] = best


def test_batch_equals_individual_and_parallel_equals_serial():
    corpus = make_synth_corpus(80, seed=21)
    queries = make_synth_corpus(10, seed=22, vocab=corpus.vocab)
    config = SelectionConfig(stage1="bm25", stage2="tree_kernel", candidate_size=30, shots=4)
    selector = Selector(corpus, config)
    serial = selector.select_batch(queries.examples, jobs=1)
    parallel = selector.select_batch(queries.examples, jobs=4)
    individual = [selector.select(q) for q in queries.examples]
    assert serial == parallel == individual
    single = selector.select_batch(queries.examples[:1])
    assert single == [individual[0]]


@pytest.mark.parametrize("jobs", [0, -1, 1.0, True])
def test_select_batch_refuses_jobs_that_are_not_a_positive_int(jobs):
    corpus = make_synth_corpus(10, seed=23)
    selector = Selector(corpus, SelectionConfig(candidate_size=5, shots=2))
    with pytest.raises(InvalidConfig, match="jobs must be an int >= 1"):
        selector.select_batch(corpus.examples[:2], jobs=jobs)


def mixed_queries(tmp_path):
    """A bundle pool, and queries from a second bundle, one-tree graphs and unseen labels."""
    vocab = LabelVocab()
    for seed, out, n in ((71, "train", 300), (72, "test", 40)):
        save_bundle(make_synth_corpus(n, seed=seed, min_tokens=1, max_tokens=20, vocab=vocab),
                    str(tmp_path / out))
    shared = LabelVocab()
    train = load_bundle(str(tmp_path / "train"), shared)
    test = load_bundle(str(tmp_path / "test"), shared)
    graphs = make_synth_corpus(6, seed=73, max_tokens=20, vocab=shared, id_offset=100)
    unseen = [query_example(spec, shared, qid) for qid, spec in enumerate([
        node("Root", leaf("never"), node("nsubj", leaf("never"), leaf("det"))),
        node("never", node("nsubj", leaf("det")), leaf("punct")),
        leaf("nowhere"),
    ], 200)]
    queries = test.examples[:20] + unseen[:2] + graphs.examples + test.examples[20:] + unseen[2:]
    assert len(queries) == 49 and len({id(q.tree.forest) for q in queries}) > 2
    return train, queries + [test[0]]  # 50 queries, one of them twice


@pytest.mark.parametrize("bound", [65_536, 70, 10])
def test_select_batch_equals_select_in_blocks_of_any_size(tmp_path, monkeypatch, bound):
    # 30 candidates a query: a bound of 70 takes two queries a pass, and one of 10 is
    # exceeded by every query on its own
    train, queries = mixed_queries(tmp_path)
    selector = Selector(train, SelectionConfig(stage1="bm25", stage2="tree_kernel",
                                               candidate_size=30, shots=4))
    assert selector.kernel_pool.width <= train.vocab.labels.index("never")
    single = [selector.select(query) for query in queries]
    monkeypatch.setattr(pipeline, "_BLOCK_ROOT_PAIRS", bound)
    passes = []
    real_scores = treekernel.PoolForest.scores

    def scores(pool, trees, ids):
        passes.append([len(each) for each in ids])
        return real_scores(pool, trees, ids)

    monkeypatch.setattr(treekernel.PoolForest, "scores", scores)
    for size in (1, 7, 50):
        passes.clear()
        batches = [queries[i:i + size] for i in range(0, len(queries), size)]
        assert [r for batch in batches for r in selector.select_batch(batch)] == single
        assert sum(len(each) for each in passes) == len(queries)
        assert all(len(each) == 1 or sum(each) <= bound for each in passes)
        per_pass = max(bound // 30, 1)
        assert len(passes) == sum(-(-len(batch) // per_pass) for batch in batches)
    assert selector.select_batch(queries, jobs=3) == single
    # scores in the chosen lists have the per-pair kernel's bits
    for query, result in zip(queries, single):
        for ex_id, score in result.chosen:
            want = treekernel.tree_kernel_similarity(query.tree, train[ex_id].tree)
            assert score.hex() == want.hex()


@pytest.mark.parametrize("candidate_size", [1, 59, 60, 100])
def test_bm25_tree_kernel_reranks_the_set_bm25_topk_ranks(candidate_size):
    # sources of a few words each from four, so the k-th BM25 score is nearly always
    # tied: stage II must get the candidates bm25_topk ranks, and score them alone
    rng = random.Random(74)
    corpus = make_synth_corpus(60, seed=75, max_tokens=15)
    queries = make_synth_corpus(50, seed=76, max_tokens=15, vocab=corpus.vocab).examples
    for ex in corpus.examples + queries:
        ex.source = " ".join(rng.choice("abcd") for _ in range(rng.randint(1, 4)))
    shots = min(4, candidate_size)
    selector = Selector(corpus, SelectionConfig(stage1="bm25", stage2="tree_kernel",
                                                candidate_size=candidate_size, shots=shots))
    single = [selector.select(query) for query in queries]
    for size in (1, 7, 50):
        batches = [queries[i:i + size] for i in range(0, len(queries), size)]
        assert [r for batch in batches for r in selector.select_batch(batch)] == single
    straddled = 0
    for query, result in zip(queries, single):
        pool = lexical.bm25_topk(selector.bm25, query.source, candidate_size)
        scores = lexical.bm25_scores(selector.bm25, query.source)
        straddled += len(pool) < np.count_nonzero(scores >= pool[-1][1])
        assert result.stage1_pool_size == len(pool) == min(candidate_size, len(corpus))
        ranked = sorted(((ex_id, treekernel.tree_kernel_similarity(query.tree, corpus[ex_id].tree))
                         for ex_id, _ in pool), key=lambda item: (-item[1], item[0]))
        assert [(ex_id, score.hex()) for ex_id, score in result.chosen] == \
            [(ex_id, score.hex()) for ex_id, score in ranked[:shots]]
    # ties at the k-th score cut the pool of many queries, when it cuts the corpus at all
    assert straddled >= len(queries) // 5 or candidate_size >= len(corpus), straddled


def test_a_failing_query_mid_block_fails_alone():
    corpus = make_synth_corpus(60, seed=81, embedding_dim=4)
    config = SelectionConfig(stage1="dense", stage2="tree_kernel", candidate_size=20, shots=3)
    selector = Selector(corpus, config)
    block = make_synth_corpus(7, seed=82, vocab=corpus.vocab, embedding_dim=4).examples
    block[3].embedding = None
    block[3].id = 77
    with pytest.raises(MissingPrecomputation, match="query 77 has no embedding"):
        selector.select(block[3])
    results, failures = selector._select_block(block)
    assert [(qid, type(exc)) for qid, exc in failures] == [(77, MissingPrecomputation)]
    assert results[3] is None
    assert [results[i] for i in (0, 1, 2, 4, 5, 6)] == [
        selector.select(block[i]) for i in (0, 1, 2, 4, 5, 6)]
    for jobs in (1, 2):
        with pytest.raises(BatchSelectionError) as excinfo:
            selector.select_batch(block, jobs=jobs)
        assert [qid for qid, _ in excinfo.value.failures] == [77]
        assert "1 queries failed: query 77" in str(excinfo.value)


def test_random_stage2_is_reproducible_and_pool_bound():
    corpus = make_synth_corpus(50, seed=31)
    queries = make_synth_corpus(3, seed=32, vocab=corpus.vocab)
    config = SelectionConfig(stage1="bm25", stage2="random", candidate_size=10,
                             shots=4, random_seed=7)
    one = Selector(corpus, config).select_batch(queries.examples)
    two = Selector(corpus, config).select_batch(queries.examples)
    assert one == two
    index = lexical.build_bm25(corpus)
    for query, result in zip(queries.examples, one):
        pool = {i for i, _ in lexical.bm25_topk(index, query.source, 10)}
        assert set(result.chosen_ids()) <= pool


def test_poly_budget_fallbacks():
    vocab = LabelVocab()
    wide = node("r",
                node("a", leaf("u"), leaf("v")),
                node("b", leaf("u"), leaf("w")),
                node("c", leaf("v"), leaf("w")),
                node("a", leaf("w"), leaf("u")))
    small = node("r", leaf("u"))
    corpus = toy_corpus([small, wide, small], vocab)
    query = query_example(node("r", leaf("u"), leaf("v")), vocab, qid=0)
    for stage2 in ("weighted_poly", "poly"):
        config = SelectionConfig(stage1="none", stage2=stage2, candidate_size=3, shots=3,
                                 term_budget=6)
        selector = Selector(corpus, config)
        assert selector.polynomials[1] is None
        result = selector.select(query)
        # over-budget candidate ranks last and is flagged
        assert result.chosen_ids()[-1] == 1
        assert result.chosen[-1][1] == math.inf
        assert result.fallbacks == [{"kind": "candidate_poly_budget", "example_id": 1}]

    blown_query = query_example(wide, vocab, qid=1)
    result = selector.select(blown_query)
    assert any(f["kind"] == "query_poly_budget" for f in result.fallbacks)
    kernel_ranked = [
        (ex.id, treekernel.tree_kernel_similarity(blown_query.tree, ex.tree))
        for ex in corpus.examples
    ]
    kernel_ranked.sort(key=lambda item: (-item[1], item[0]))
    assert result.chosen == kernel_ranked

    # (y_a + x_b)^66 has a coefficient C(66, 33) >= 2**62: a fallback at the
    # default term budget too, as a candidate and as a query
    huge = node("r", *[node("a", leaf("b"))] * 66)
    corpus = toy_corpus([small, huge, small], vocab)
    huge_query = query_example(huge, vocab, qid=2)
    for stage2 in ("poly", "weighted_poly"):
        config = SelectionConfig(stage1="none", stage2=stage2, candidate_size=3, shots=3)
        selector = Selector(corpus, config)
        assert selector.polynomials[1] is None
        result = selector.select(query)
        assert result.chosen_ids()[-1] == 1
        assert result.chosen[-1][1] == math.inf
        assert result.fallbacks == [{"kind": "candidate_poly_budget", "example_id": 1}]

        result = selector.select(huge_query)
        assert result.fallbacks == [{"kind": "query_poly_budget", "query_id": 2}]
        kernel_ranked = sorted(
            ((ex.id, treekernel.tree_kernel_similarity(huge_query.tree, ex.tree))
             for ex in corpus.examples), key=lambda item: (-item[1], item[0]))
        assert result.chosen == kernel_ranked


def test_query_pair_budget_falls_back_to_tree_kernel(monkeypatch):
    vocab = LabelVocab()
    specs = [node("r", leaf("u")), node("r", node("a", leaf("u"), leaf("v"))), node("r", leaf("v"))]
    corpus = toy_corpus(specs, vocab)
    config = SelectionConfig(stage1="none", stage2="poly", candidate_size=3, shots=3)
    selector = Selector(corpus, config)
    query = query_example(node("r", leaf("u"), leaf("v")), vocab, qid=7)
    pairs = len(treepoly.tree_to_polynomial(query.tree, vocab)) * sum(
        len(poly) for poly in selector.polynomials)

    monkeypatch.setattr(treepoly, "QUERY_PAIRS_CAP", pairs)
    result = selector.select(query)
    assert result.fallbacks == []
    assert result.chosen == sorted(
        ((ex.id, treepoly.poly_distance(treepoly.tree_to_polynomial(query.tree, vocab),
                                        selector.polynomials[ex.id]))
         for ex in corpus.examples), key=lambda item: (item[1], item[0]))

    monkeypatch.setattr(treepoly, "QUERY_PAIRS_CAP", pairs - 1)
    result = selector.select(query)
    assert result.fallbacks == [{"kind": "query_pair_budget", "query_id": 7}]
    kernel_ranked = sorted(
        ((ex.id, treekernel.tree_kernel_similarity(query.tree, ex.tree)) for ex in corpus.examples),
        key=lambda item: (-item[1], item[0]))
    assert result.chosen == kernel_ranked


def test_dense_stage1_requires_embeddings():
    corpus = make_synth_corpus(10, seed=51)
    config = SelectionConfig(stage1="dense", stage2="tree_kernel", candidate_size=10, shots=2)
    with pytest.raises(MissingPrecomputation):
        Selector(corpus, config)

    with_emb = make_synth_corpus(10, seed=51, embedding_dim=4)
    selector = Selector(with_emb, config)
    query = make_synth_corpus(1, seed=52, vocab=with_emb.vocab)[0]  # no embedding
    with pytest.raises(MissingPrecomputation):
        selector.select(query)


@pytest.mark.parametrize("stage2", ["poly", "weighted_poly"])
def test_poly_selector_refuses_a_vocabulary_grown_after_it(stage2):
    vocab = LabelVocab()
    corpus = toy_corpus([node("r", leaf("u")), node("r", node("a", leaf("u")))], vocab)
    config = SelectionConfig(stage1="none", stage2=stage2, candidate_size=2, shots=1)
    selector = Selector(corpus, config)
    query = query_example(node("r", node("a", leaf("u"))), vocab, qid=5)
    assert selector.select(query).chosen_ids() == [1]
    toy_corpus([node("r", leaf("new"))], vocab)  # another corpus, loaded into the same vocab
    with pytest.raises(MissingPrecomputation, match="one LabelVocab before building"):
        selector.select(query)


def test_batch_aggregates_failures_with_query_ids():
    corpus = make_synth_corpus(10, seed=61, embedding_dim=4)
    config = SelectionConfig(stage1="dense", stage2="none", candidate_size=10, shots=2)
    selector = Selector(corpus, config)
    good = make_synth_corpus(2, seed=62, vocab=corpus.vocab, embedding_dim=4)
    bad = make_synth_corpus(1, seed=63, vocab=corpus.vocab)  # missing embedding
    bad.examples[0].id = 77
    with pytest.raises(BatchSelectionError) as excinfo:
        selector.select_batch(good.examples + bad.examples)
    assert "query 77" in str(excinfo.value)


def test_export_and_load_results_roundtrip(tmp_path):
    corpus = make_synth_corpus(20, seed=91)
    queries = make_synth_corpus(4, seed=92, vocab=corpus.vocab)
    config = SelectionConfig(stage1="bm25", stage2="tree_kernel", candidate_size=10, shots=3)
    results = Selector(corpus, config).select_batch(queries.examples)
    path = tmp_path / "selections.jsonl"
    export_results(results, config, str(path))
    loaded = load_results(str(path))
    assert [r.query_id for r in loaded] == [r.query_id for r in results]
    assert [r.chosen for r in loaded] == [r.chosen for r in results]
    with open(path, encoding="utf-8") as f:
        first = json.loads(f.readline())
    assert first["stage1"] == "bm25" and first["stage2"] == "tree_kernel"


def test_load_results_rejects_malformed_lines(tmp_path):
    path = tmp_path / "selections.jsonl"
    good = json.dumps({"query_id": 0, "chosen": [[1, 0.5], [2, 3]], "stage1_pool_size": 4})
    path.write_text(good + "\n", encoding="utf-8")
    assert load_results(str(path))[0].chosen == [(1, 0.5), (2, 3.0)]
    bad_lines = [
        good[:-5],  # truncated
        "[1, 2]",
        json.dumps({"chosen": [[1, 0.5]], "stage1_pool_size": 4}),
        json.dumps({"query_id": True, "chosen": [[1, 0.5]], "stage1_pool_size": 4}),
        json.dumps({"query_id": 0, "chosen": [[1.0, 0.5]], "stage1_pool_size": 4}),
        json.dumps({"query_id": 0, "chosen": [[1, "0.5"]], "stage1_pool_size": 4}),
        json.dumps({"query_id": 0, "chosen": [[1, 0.5, 2]], "stage1_pool_size": 4}),
        json.dumps({"query_id": 0, "chosen": [[False, 0.5]], "stage1_pool_size": 4}),
        json.dumps({"query_id": 0, "chosen": {"1": 0.5}, "stage1_pool_size": 4}),
        json.dumps({"query_id": 0, "chosen": [[1, 0.5]]}),
    ]
    for bad in bad_lines:
        path.write_text(good + "\n" + bad + "\n", encoding="utf-8")
        with pytest.raises(MalformedSelection, match=r"selections\.jsonl line 2"):
            load_results(str(path))
