import itertools
import json
import math
import random

import numpy as np
import pytest

from synicl import lexical, treekernel, treepoly
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

from conftest import build_tree, leaf, node, make_synth_corpus, random_tree_spec


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
    with pytest.raises(InvalidConfig):
        SelectionConfig(error_weight=0.0).validate()


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


def assert_stage2_kernel_scores_bitwise(selectors, queries):
    """Every stage-II score has the bits of tree_kernel_similarity, for every candidate."""
    deeper = pairs = 0
    for query in queries:
        for selector in selectors:
            chosen = selector.select(query).chosen
            pool = selector._stage1_pool(query)
            assert sorted(ex_id for ex_id, _ in chosen) == sorted(ex_id for ex_id, _ in pool)
            for ex_id, score in chosen:
                want = treekernel.tree_kernel_similarity(query.tree, selector.corpus[ex_id].tree)
                assert score.hex() == want.hex(), (query.id, ex_id)
            ids = np.array([ex_id for ex_id, _ in pool])
            deeper += len(selector.root_profile.scores(query.tree, ids)[1])
            pairs += len(ids)
    assert 0 < deeper < pairs  # some pairs recurse, and some end at the root


def test_tree_kernel_root_pass_equals_kernel_on_bundles(tmp_path):
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


def test_tree_kernel_root_pass_equals_kernel_on_hand_built_trees():
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
    assert vocab.index("new") >= len(selectors[0].root_profile.leaves)
    assert_stage2_kernel_scores_bitwise(selectors, queries)


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
