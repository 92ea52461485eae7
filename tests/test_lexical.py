import math
import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from synicl.lexical import (
    Bm25Index,
    DenseIndex,
    DimensionMismatch,
    EmptyCorpus,
    ZeroVector,
    _survivors,
    bm25_candidates,
    bm25_scores,
    bm25_topk,
    build_bm25,
    build_dense,
    dense_topk,
    tokenize,
    top_k,
)

from conftest import make_synth_corpus


# ---------------------------------------------------------------------------
# oracles: score every document directly, no inverted index, no fancy top-k
# ---------------------------------------------------------------------------

def bm25_oracle(docs_tokens, query_tokens, k1=1.2, b=0.75):
    n = len(docs_tokens)
    avgdl = float(sum(len(d) for d in docs_tokens)) / n
    doc_freq = {}
    for doc in docs_tokens:
        for token in set(doc):
            doc_freq[token] = doc_freq.get(token, 0) + 1
    ranked = []
    for i, doc in enumerate(docs_tokens):
        dl = len(doc)
        score = 0.0
        for token in query_tokens:
            n_t = doc_freq.get(token, 0)
            idf = math.log(1.0 + (n - n_t + 0.5) / (n_t + 0.5))
            tf = doc.count(token)
            score += idf * ((tf * (k1 + 1.0)) / (tf + k1 * (1.0 - b + b * dl / avgdl)))
        ranked.append((i, score))
    ranked.sort(key=lambda item: (-item[1], item[0]))
    return ranked


def cosine_oracle(vectors, query, k):
    """Row by row: each row normalised as `from_vectors` does, dotted with the unit query."""
    norm = math.sqrt(float(np.dot(query, query)))
    scores = [float(np.dot(row / math.sqrt(float(np.dot(row, row))), query / norm))
              for row in vectors]
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return [(i, scores[i]) for i in order[:k]]


def test_tokenize():
    assert tokenize("No smoking in the public places.") == \
        ["no", "smoking", "in", "the", "public", "places."]
    assert tokenize("") == []
    assert tokenize("A  B") == ["a", "b"]


def test_build_rejects_empty():
    for docs in ([], iter([]), (tokenize(source) for source in [])):
        with pytest.raises(EmptyCorpus):
            Bm25Index.build(docs)


def test_corpus_of_empty_documents_builds_and_scores_zero():
    index = Bm25Index.build([] for _ in range(3))
    assert index.n_docs == 3 and index.postings == {}
    assert bm25_scores(index, "a a b").tobytes() == np.zeros(3).tobytes()
    assert bm25_topk(index, "a", 2) == [(0, 0.0), (1, 0.0)]


def test_build_from_a_generator_equals_the_build_from_its_list():
    rng = random.Random(46)
    common, rare = ["the", "a", "of"], [f"r{i}" for i in range(40)]
    docs = [[rng.choice(common) for _ in range(rng.randint(0, 4))]
            + [rng.choice(rare) for _ in range(rng.randint(0, 5))] for _ in range(300)]
    from_list = Bm25Index.build(docs)
    from_generator = Bm25Index.build(tuple(doc) for doc in docs)
    # terms are numbered in order of first occurrence, and postings keep that order
    first_seen = list(dict.fromkeys(token for doc in docs for token in doc))
    assert list(from_generator.postings) == list(from_list.postings) == first_seen
    dense = 0
    for term, (ids, weights) in from_list.postings.items():
        generator_ids, generator_weights = from_generator.postings[term]
        if isinstance(ids, slice):
            dense += 1
            assert generator_ids == ids
        else:
            assert generator_ids.dtype == ids.dtype and generator_ids.tobytes() == ids.tobytes()
        assert generator_weights.dtype == weights.dtype
        assert generator_weights.tobytes() == weights.tobytes()
    assert dense >= 1
    query = "the r1 the oov r1 a"
    assert bm25_scores(from_generator, query).tobytes() == bm25_scores(from_list, query).tobytes()


def test_build_bm25_holds_no_python_object_per_token():
    # Streaming one document's tokens at a time into an int64 buffer peaked at
    # ~55 bytes a token here; holding every document's token list and one int
    # per token at once peaked at ~120.
    rng = random.Random(47)
    words = [f"w{i}" for i in range(500)]
    zipf = [1.0 / (rank + 1) for rank in range(len(words))]
    sources = [" ".join(rng.choices(words, weights=zipf, k=rng.randint(3, 40)))
               for _ in range(5000)]
    corpus = SimpleNamespace(examples=[SimpleNamespace(source=source) for source in sources])
    n_tokens = sum(len(tokenize(source)) for source in sources)
    tracemalloc.start()
    try:
        build_bm25(corpus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n_tokens < 80


def test_build_from_corpus():
    corpus = make_synth_corpus(3, seed=1)
    index = build_bm25(corpus)
    assert index.n_docs == 3
    assert set(index.postings) == {token for ex in corpus.examples for token in tokenize(ex.source)}


def test_topk_prefers_lexical_overlap():
    docs = [
        tokenize("no smoking in public places"),
        tokenize("no future for public transport"),
        tokenize("i like cats"),
    ]
    index = Bm25Index.build(docs)
    query = "No smoking in the public places."
    ranked = bm25_topk(index, query, 3)
    expected = bm25_oracle(docs, tokenize(query))
    assert ranked == expected
    assert ranked[0][0] == 0  # the smoking-ban document wins


def test_out_of_vocabulary_query_scores_zero_in_id_order():
    docs = [tokenize("alpha beta"), tokenize("gamma delta"), tokenize("epsilon")]
    index = Bm25Index.build(docs)
    ranked = bm25_topk(index, "zzz qqq", 2)
    assert ranked == [(0, 0.0), (1, 0.0)]


def test_k_larger_than_corpus_returns_everything():
    docs = [tokenize("a b"), tokenize("b c")]
    index = Bm25Index.build(docs)
    assert len(bm25_topk(index, "b", 10)) == 2


def test_empty_document_is_indexed_with_score_zero():
    docs = [tokenize("a b"), [], tokenize("a c")]
    index = Bm25Index.build(docs)
    ranked = bm25_topk(index, "a", 3)
    assert ranked == bm25_oracle(docs, ["a"])
    scores = dict(ranked)
    assert scores[1] == 0.0


def test_rebuild_gives_identical_scores():
    rng = random.Random(2)
    docs = [[rng.choice("abcdef") for _ in range(rng.randint(1, 8))] for _ in range(50)]
    q = "a b c"
    one = bm25_topk(Bm25Index.build(docs), q, 50)
    two = bm25_topk(Bm25Index.build(docs), q, 50)
    assert one == two


def test_bm25_matches_oracle_random_corpora():
    rng = random.Random(40)
    words = [f"t{i}" for i in range(60)]
    for trial in range(5):
        docs = [
            [rng.choice(words) for _ in range(rng.randint(0, 15))]
            for _ in range(rng.randint(5, 300))
        ]
        if all(len(d) == 0 for d in docs):
            continue
        index = Bm25Index.build(docs)
        for _ in range(20):
            query = " ".join(rng.choice(words + ["oov"]) for _ in range(rng.randint(1, 6)))
            got = bm25_topk(index, query, len(docs))
            expected = bm25_oracle(docs, tokenize(query))
            assert got == expected  # exact scores and order


def per_query_bm25_scores(docs_tokens, query_tokens, k1=1.2, b=0.75):
    """The per-query vector formula: term weights computed at query time."""
    n = len(docs_tokens)
    lengths = np.array([len(doc) for doc in docs_tokens], dtype=np.float64)
    k1_norm = k1 * (1.0 - b + b * lengths / (float(lengths.sum()) / n))
    scores = np.zeros(n)
    for token in query_tokens:
        ids = np.array([i for i, doc in enumerate(docs_tokens) if token in doc], dtype=np.intp)
        if len(ids) == 0:
            continue
        tfs = np.array([docs_tokens[i].count(token) for i in ids], dtype=np.float64)
        idf = math.log(1.0 + (n - len(ids) + 0.5) / (len(ids) + 0.5))
        scores[ids] += idf * ((tfs * (k1 + 1.0)) / (tfs + k1_norm[ids]))
    return scores


def test_bm25_posting_weights_equal_per_query_formula():
    rng = random.Random(43)
    words = [f"t{i}" for i in range(40)]
    for trial in range(5):
        docs = [[rng.choice(words) for _ in range(rng.randint(1, 20))]
                for _ in range(rng.randint(20, 400))]
        index = Bm25Index.build(docs)
        for _ in range(30):
            query = [rng.choice(words[:8] + ["oov"]) for _ in range(rng.randint(1, 8))]
            query += query[: rng.randint(0, len(query))]  # repeated tokens count again
            got = bm25_scores(index, " ".join(query))
            want = per_query_bm25_scores(docs, query)
            assert got.tobytes() == want.tobytes()


def assert_dense_layout_keeps_bits(docs, queries, dense_terms):
    """`dense_terms` are stored as columns and only they; every query keeps the per-query bits."""
    index = Bm25Index.build(docs)
    assert set(index.postings) == {token for doc in docs for token in doc}
    assert {t for t, (ids, _) in index.postings.items() if isinstance(ids, slice)} == dense_terms
    for query in queries:
        got = bm25_scores(index, " ".join(query))
        assert got.tobytes() == per_query_bm25_scores(docs, query).tobytes()
    return index


def test_term_in_a_quarter_of_the_documents_is_a_dense_column():
    # "x" in 3 of 12 documents: 4 * df == n
    docs = [["x", "a"], ["x", "x", "b"], ["c", "x"]] + [["a", "b"]] * 4 + [["c"]] * 5
    index = assert_dense_layout_keeps_bits(docs, [["x"], ["x", "a"], ["b", "x"]],
                                           {"x", "a", "b", "c"})
    ids, column = index.postings["x"]
    assert ids == slice(None) and column.dtype == np.float64 and column.shape == (12,)
    assert np.flatnonzero(column).tolist() == [0, 1, 2]


def test_term_one_document_short_of_a_quarter_stays_sparse():
    # "x" in 2 of 12 documents (one short of 3), and in 3 of 13 (4 * df == n - 1)
    for docs in ([["x", "a"], ["x", "x", "b"]] + [["a", "b"]] * 5 + [["c"]] * 5,
                 [["x", "a"], ["x", "x", "b"], ["x"]] + [["a", "b"]] * 5 + [["c"]] * 5):
        index = assert_dense_layout_keeps_bits(docs, [["x"], ["x", "a"], ["c", "x", "x"]],
                                               {"a", "b", "c"})
        ids, weights = index.postings["x"]
        assert ids.tolist() == list(range(len(weights)))


def test_query_repeating_a_dense_token_adds_its_column_again():
    docs = [["the", "cat"], ["the", "dog", "the"], ["a", "cat"], ["the"], ["dog"], ["bird"]]
    assert_dense_layout_keeps_bits(
        docs, [["the", "the"], ["the", "cat", "the", "the"], ["cat", "the", "cat"]],
        {"the", "cat", "dog"})


def test_query_mixing_dense_sparse_and_unknown_tokens():
    rng = random.Random(44)
    common, rare = ["the", "a", "of"], [f"r{i}" for i in range(30)]
    docs = [[rng.choice(common) for _ in range(rng.randint(1, 4))]
            + [rng.choice(rare) for _ in range(rng.randint(0, 3))] for _ in range(200)]
    queries = [[rng.choice(common + rare + ["oov", "zzz"]) for _ in range(rng.randint(1, 10))]
               for _ in range(50)]
    assert_dense_layout_keeps_bits(docs, queries, set(common))


def test_corpus_where_every_term_is_dense():
    for docs in ([["a", "b", "a"]], [["a", "b"], ["b", "c"]]):
        vocabulary = {token for doc in docs for token in doc}
        assert_dense_layout_keeps_bits(docs, [["a"], ["b", "c", "oov", "b"]], vocabulary)


def test_corpus_with_empty_documents_keeps_the_dense_layout():
    docs = [[], ["a", "b"], [], ["a"], [], ["c", "a"], [], [], ["b"], []]
    assert_dense_layout_keeps_bits(docs, [["a"], ["a", "b", "c"], ["c", "oov", "c"]], {"a"})


def test_bm25_index_arrays_are_read_only():
    docs = [["a", "b"], ["a"], ["a", "c"], ["d"], ["e"], ["f"], ["g"], ["h"], ["i"]]
    index = Bm25Index.build(docs)
    dense_column = index.postings["a"][1]
    sparse_ids, sparse_weights = index.postings["c"]
    before = bm25_scores(index, "a c")
    for array in (dense_column, sparse_ids, sparse_weights):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 100
    assert bm25_scores(index, "a c").tobytes() == before.tobytes()


def test_bm25_scores_nonnegative():
    rng = random.Random(41)
    docs = [[rng.choice("abc") for _ in range(rng.randint(1, 6))] for _ in range(30)]
    index = Bm25Index.build(docs)
    for _ in range(20):
        query = " ".join(rng.choice("abcz") for _ in range(3))
        assert all(score >= 0.0 for _, score in bm25_topk(index, query, 30))


# ---------------------------------------------------------------------------
# dense retrieval
# ---------------------------------------------------------------------------

def test_rows_unit_normalized():
    rng = np.random.default_rng(0)
    raw = rng.normal(size=(20, 8)) * 5.0
    index = DenseIndex.from_vectors(raw)
    assert index.unit32.dtype == np.float32
    norms = np.sqrt((index.unit32.astype(np.float64) ** 2).sum(axis=1))
    assert np.all(np.abs(norms - 1.0) < 1e-6)
    assert np.shares_memory(raw, index.matrix)  # the float64 matrix is not copied
    for row, norm in zip(raw, index.norms):
        assert norm == math.sqrt(float(np.dot(row, row)))
    for row, norm, unit in zip(raw, index.norms, index.unit32):
        assert unit.tobytes() == (row / norm).astype(np.float32).tobytes()


def test_index_arrays_are_read_only():
    raw = np.random.default_rng(2).normal(size=(5, 4))
    index = DenseIndex.from_vectors(raw)
    for array in (index.matrix[0], index.norms, index.unit32):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    raw[0, 0] = 1.0  # the caller's own matrix stays writable


def test_zero_row_rejected():
    raw = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ZeroVector):
        DenseIndex.from_vectors(raw)


def test_self_similarity_tops_ranking():
    rng = np.random.default_rng(1)
    raw = rng.normal(size=(30, 16))
    index = DenseIndex.from_vectors(raw)
    ranked = dense_topk(index, raw[7], 3)
    assert ranked[0][0] == 7
    assert abs(ranked[0][1] - 1.0) < 1e-6


def test_orthogonal_query_id_order():
    raw = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    index = DenseIndex.from_vectors(raw)
    ranked = dense_topk(index, np.array([0.0, 0.0, 2.0]), 2)
    assert [i for i, _ in ranked] == [0, 1]
    assert all(abs(s) < 1e-12 for _, s in ranked)


def test_two_dimensional_hand_case():
    index = DenseIndex.from_vectors(np.array([[1.0, 0.0], [0.0, 1.0]]))
    ranked = dense_topk(index, np.array([0.6, 0.8]), 2)
    assert [i for i, _ in ranked] == [1, 0]
    assert ranked[0][1] == pytest.approx(0.8, abs=1e-12)
    assert ranked[1][1] == pytest.approx(0.6, abs=1e-12)


def test_dimension_and_zero_query_errors():
    index = DenseIndex.from_vectors(np.eye(3))
    with pytest.raises(DimensionMismatch):
        dense_topk(index, np.array([1.0, 0.0]), 1)
    with pytest.raises(ZeroVector):
        dense_topk(index, np.zeros(3), 1)


# a vector whose float64 norm overflows or underflows has no unit vector: an
# overflowing row used to get the unit row 0 and rank last on its own query
NO_NORM = [([1e200, 0.0], "inf"), ([0.0, 1e-300], r"0\.0"), ([np.nan, 1.0], "nan"),
           ([np.inf, 1.0], "inf"), ([-np.inf, 1.0], "inf")]
NO_NORM_IDS = ["overflow", "underflow", "nan", "inf", "-inf"]


@pytest.mark.parametrize("row, norm", NO_NORM, ids=NO_NORM_IDS)
def test_row_without_a_norm_is_refused(row, norm):
    with pytest.raises(ZeroVector, match=f"embedding row 1 has float64 L2 norm {norm},"):
        DenseIndex.from_vectors(np.array([[0.0, 1.0], row, [1.0, 1.0]]))


@pytest.mark.parametrize("query, norm", NO_NORM, ids=NO_NORM_IDS)
def test_query_without_a_norm_is_refused(query, norm):
    index = DenseIndex.from_vectors(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ZeroVector, match=f"the query vector has float64 L2 norm {norm},"):
        dense_topk(index, np.array(query), 2)


def test_dense_matches_oracle_and_score_range():
    rng = np.random.default_rng(9)
    raw = rng.normal(size=(200, 12))
    index = DenseIndex.from_vectors(raw)
    for _ in range(25):
        q = rng.normal(size=12)
        got = dense_topk(index, q, 200)
        expected = cosine_oracle(raw, q, 200)
        assert got == expected  # exact scores and order
        assert all(-1.0 - 1e-9 <= s <= 1.0 + 1e-9 for _, s in got)


def test_dense_rescoring_has_np_dot_bits():
    # k = n rescores every row in the one gathered np.vecdot
    rng = np.random.default_rng(12)
    for dim, n, scale in ((384, 300, 1.0), (7, 50, 1e-150), (64, 120, 1e150), (1, 5, 3.0)):
        vectors = rng.normal(size=(n, dim)) * scale
        index = DenseIndex.from_vectors(vectors)
        for _ in range(5):
            q = rng.normal(size=dim) * scale
            nq = q / math.sqrt(float(np.dot(q, q)))
            got = dict(dense_topk(index, q, n))
            assert sorted(got) == list(range(n))
            for i, (row, norm) in enumerate(zip(index.matrix, index.norms)):
                assert got[i].hex() == float(np.dot(row / norm, nq)).hex()


@pytest.mark.parametrize("approx_error", ["vecdot", "worst"])
def test_dense_topk_exact_on_adversarial_rows(approx_error, monkeypatch):
    """Near-ties that the approximate pass may order differently from row-wise dots.

    Rows one float64 ulp apart round to one float32 row, so the float32
    pass ties them. "worst" replaces that pass with the exact scores pushed
    up or down by e, the bound on one approximate score's error that the
    band is derived from: rounding the unit row and the unit query to
    float32, a float32 dot product, and the exact score's own rounding.
    """
    rng = np.random.default_rng(11)
    dim = 64
    if approx_error == "worst":
        u32, u64 = np.finfo(np.float32).eps / 2, np.finfo(np.float64).eps / 2
        e = (dim * u32 / (1 - dim * u32) * (1 + u32) ** 2 + 2 * u32 + u32 ** 2
             + dim * u64 / (1 - dim * u64))

        exact_vecdot = np.vecdot

        def shifted_dots(unit32, nq32):
            if unit32.dtype == np.float64:  # the exact rescoring of the band rows
                return exact_vecdot(unit32, nq32)
            assert unit32.dtype == nq32.dtype == np.float32
            nq = q / math.sqrt(float(np.dot(q, q)))  # the query dense_topk is scoring
            exact = np.array([np.dot(row / norm, nq)
                              for row, norm in zip(index.matrix, index.norms)])
            return exact + rng.choice([-e, e], size=len(exact))

        monkeypatch.setattr(np, "vecdot", shifted_dots)
    for trial in range(20):
        q = rng.normal(size=dim)
        base = rng.normal(size=dim)
        base /= np.linalg.norm(base)
        rows = [base, base.copy()]  # exact duplicates
        for _ in range(30):  # rows one ulp apart in one entry: tied or straddling
            row = base.copy()
            j = rng.integers(dim)
            row[j] = np.nextafter(row[j], np.inf if rng.random() < 0.5 else -np.inf)
            rows.append(row)
        rows.extend(v / np.linalg.norm(v) for v in rng.normal(size=(10, dim)))
        vectors = np.array(rows)[rng.permutation(len(rows))]
        index = DenseIndex.from_vectors(vectors)
        if trial % 2:
            q = vectors[0] * 3.0  # the query is one of the tied rows
        n = len(vectors)
        for k in range(1, n + 1):
            assert dense_topk(index, q, k) == cosine_oracle(vectors, q, k)


def test_build_dense_requires_embeddings():
    corpus = make_synth_corpus(4, seed=3)  # no embeddings attached
    with pytest.raises(ZeroVector):
        build_dense(corpus)
    with_emb = make_synth_corpus(4, seed=3, embedding_dim=8)
    index = build_dense(with_emb)
    assert index.dim == 8
    # the index reads the corpus's matrix in place
    assert np.shares_memory(index.matrix, with_emb.embeddings)
    assert index.matrix.tobytes() == with_emb.embeddings.tobytes()


def test_top_k_equals_full_sort():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 40)
        # few distinct values, so ties straddle the k-th place; inf stands for a fallback
        scores = [rng.choice([0.0, 0.5, 1.0, 2.0, math.inf]) for _ in range(n)]
        ids = rng.sample(range(100), n)
        k = rng.randint(1, n + 2)
        best_first = sorted(zip(ids, scores), key=lambda item: (-item[1], item[0]))[:k]
        nearest_first = sorted(zip(ids, scores), key=lambda item: (item[1], item[0]))[:k]
        assert top_k(np.array(scores), k, np.array(ids)) == best_first
        assert top_k(np.array(scores), k, np.array(ids), smallest=True) == nearest_first
        by_position = sorted(enumerate(scores), key=lambda item: (-item[1], item[0]))[:k]
        assert top_k(np.array(scores), k) == by_position
        # plain Python ints and floats, not numpy scalars, also from list inputs
        pairs = top_k(np.array(scores), k) + top_k(scores, k, ids, smallest=True)
        assert all(type(i) is int and type(s) is float for i, s in pairs)


def test_survivors_are_the_top_k_set():
    rng = random.Random(8)
    for _ in range(300):
        n = rng.randint(1, 60)
        # integer scores from a small range, so the k-th score is nearly always tied
        scores = np.array([float(rng.randint(0, 3)) for _ in range(n)])
        ids = np.array(rng.sample(range(200), n))
        for k in {1, max(n - 1, 1), n, n + 1, rng.randint(1, n)}:
            # a full sort is the oracle; the ranked top_k shares the survivor step
            want = sorted(sorted(range(n), key=lambda i: (-scores[i], i))[:k])
            assert sorted(i for i, _ in top_k(scores, k)) == want
            assert _survivors(-scores, k).tolist() == want
            nearest = sorted(zip(scores.tolist(), ids.tolist()))[:k]
            assert sorted(ids[_survivors(scores, k, ids)].tolist()) == sorted(i for _, i in nearest)


def test_bm25_candidates_are_bm25_topk_ids_ascending():
    rng = random.Random(41)
    words = [f"t{i}" for i in range(6)]  # a small vocabulary: many equal scores
    for _ in range(20):
        n = rng.randint(2, 80)
        docs = [[rng.choice(words) for _ in range(rng.randint(0, 6))] for _ in range(n)]
        if not any(docs):
            continue
        index = Bm25Index.build(docs)
        for _ in range(5):
            query = " ".join(rng.choice(words + ["oov"]) for _ in range(rng.randint(1, 4)))
            for k in (1, n - 1, n, n + 5, rng.randint(1, n)):
                got = bm25_candidates(index, query, k)
                assert got.dtype == np.intp
                assert got.tolist() == sorted(i for i, _ in bm25_topk(index, query, k))


def test_bm25_candidates_of_an_out_of_vocabulary_query_are_the_first_ids():
    docs = [tokenize("alpha beta"), tokenize("gamma delta"), tokenize("epsilon"), ["beta"]]
    index = Bm25Index.build(docs)
    for k in (1, 2, 3, 4, 9):
        assert bm25_candidates(index, "zzz qqq", k).tolist() == list(range(min(k, 4)))


def test_every_top_k_rejects_k_below_one():
    index = Bm25Index.build([tokenize("a b"), tokenize("b c")])
    for k in (0, -1):
        for call in (lambda: bm25_candidates(index, "b", k), lambda: bm25_topk(index, "b", k),
                     lambda: top_k([1.0, 2.0, 3.0], k)):
            with pytest.raises(ValueError, match="k must be >= 1"):
                call()
