"""Stage-I retrieval: Okapi BM25 over source sentences, cosine over embeddings.

BM25 uses the non-negative idf form ln(1 + (N - n + 0.5) / (n + 0.5)) with
k1=1.2, b=0.75 by default. Embeddings are an external input (any encoder
producing one vector per sentence); rows are L2-normalized at load so cosine
similarity reduces to a dot product.

Dense top-k scores every row with one `np.vecdot` over the matrix, on the
calling thread (a BLAS matrix-vector product would run on worker threads
outside the caller's CPU affinity), then rescores row by row only the rows
whose approximate score lies within a rounding band of the approximate
k-th score. The band is derived from the dimension (see `dense_topk`),
wide enough that every row of the exact top k is inside it, so ids and
scores equal those of scoring each row with its own `np.dot`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .treebank import Corpus


class EmptyCorpus(ValueError):
    pass


class DimensionMismatch(ValueError):
    pass


class ZeroVector(ValueError):
    pass


def tokenize(text: str) -> List[str]:
    """Lowercased whitespace tokens; no stemming, no punctuation handling."""
    return text.lower().split()


@dataclass
class Bm25Index:
    """Inverted index holding each posting's Okapi term weight.

    A posting's weight is its whole contribution to the document's score,
    idf * (tf * (k1 + 1)) / (tf + k1 * (1 - b + b * dl / avgdl)), computed
    once here with the same operations in the same order as a per-query
    evaluation, so a query only adds weights.
    """

    n_docs: int
    doc_lengths: np.ndarray
    avg_doc_length: float
    k1: float
    b: float
    postings: Dict[str, Tuple[np.ndarray, np.ndarray]]  # term -> (doc ids, weights)
    tokenizer: Callable[[str], List[str]] = tokenize

    @classmethod
    def build(
        cls,
        docs_tokens: List[List[str]],
        k1: float = 1.2,
        b: float = 0.75,
        tokenizer: Callable[[str], List[str]] = tokenize,
    ) -> "Bm25Index":
        if not docs_tokens:
            raise EmptyCorpus("cannot index an empty corpus")
        n = len(docs_tokens)
        lengths = np.array([len(doc) for doc in docs_tokens], dtype=np.float64)
        avgdl = float(sum(len(doc) for doc in docs_tokens)) / n

        if avgdl > 0:
            k1_norm = k1 * (1.0 - b + b * lengths / avgdl)
        else:
            # corpus of empty documents: every query scores 0 anyway
            k1_norm = np.full(n, k1 * (1.0 - b))
        # one (term, doc) key per token occurrence; counting the distinct keys
        # gives every posting, sorted by term and then by doc id
        term_ids: Dict[str, int] = {}
        terms = [term_ids.setdefault(token, len(term_ids)) for doc in docs_tokens for token in doc]
        docs = np.repeat(np.arange(n), lengths.astype(np.intp))
        keys, tfs = np.unique(np.array(terms, dtype=np.intp) * n + docs, return_counts=True)
        ids = keys % n
        bounds = np.searchsorted(keys // n, np.arange(len(term_ids) + 1))
        doc_freq = np.diff(bounds)
        idf = [math.log(1.0 + (n - n_t + 0.5) / (n_t + 0.5)) for n_t in doc_freq.tolist()]
        tfs = tfs.astype(np.float64)
        # elementwise the operations of idf * ((tfs * (k1 + 1.0)) / (tfs + k1_norm[ids]))
        # on one term's postings, so every weight has the same bits
        weights = np.repeat(idf, doc_freq) * ((tfs * (k1 + 1.0)) / (tfs + k1_norm[ids]))
        bounds = bounds.tolist()
        postings = {token: (ids[bounds[t]:bounds[t + 1]], weights[bounds[t]:bounds[t + 1]])
                    for token, t in term_ids.items()}

        return cls(
            n_docs=n,
            doc_lengths=lengths,
            avg_doc_length=avgdl,
            k1=k1,
            b=b,
            postings=postings,
            tokenizer=tokenizer,
        )


def build_bm25(
    corpus: Corpus,
    k1: float = 1.2,
    b: float = 0.75,
    tokenizer: Callable[[str], List[str]] = tokenize,
) -> Bm25Index:
    """Index the tokenized source sentences of `corpus`."""
    if len(corpus) == 0:
        raise EmptyCorpus("cannot index an empty corpus")
    return Bm25Index.build([tokenizer(ex.source) for ex in corpus.examples], k1, b, tokenizer)


def bm25_scores(index: Bm25Index, query: str) -> np.ndarray:
    """Okapi score of every document for `query` (dense vector, one per doc).

    A token that occurs twice in the query adds its weights twice.
    """
    scores = np.zeros(index.n_docs)
    for token in index.tokenizer(query):
        entry = index.postings.get(token)
        if entry is not None:
            ids, weights = entry
            scores[ids] += weights
    return scores


def top_k(
    scores: Sequence[float], k: int, ids: Optional[Sequence[int]] = None, smallest: bool = False
) -> List[Tuple[int, float]]:
    """The k best (id, score) pairs, exactly as a full sort would rank them.

    Highest scores come first, or lowest when `smallest` (distances); ties go
    to the lower id. `ids` defaults to positions; scores must not be NaN.
    Only the k survivors of a partition are sorted.
    """
    scores = np.asarray(scores, dtype=np.float64)
    ids = np.arange(len(scores)) if ids is None else np.asarray(ids)
    keys = scores if smallest else -scores
    if k < len(keys):
        kth = np.partition(keys, k - 1)[k - 1]
        better = np.flatnonzero(keys < kth)
        tied = np.flatnonzero(keys == kth)
        tied = tied[np.argsort(ids[tied], kind="stable")[: k - len(better)]]
        keep = np.concatenate((better, tied))
        keys, ids, scores = keys[keep], ids[keep], scores[keep]
    order = np.lexsort((ids, keys))[:k]
    return [(int(ids[i]), float(scores[i])) for i in order]


def bm25_topk(index: Bm25Index, query: str, k: int) -> List[Tuple[int, float]]:
    """Top-k documents by BM25 score, descending, ties broken by lower doc id."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return top_k(bm25_scores(index, query), k)


@dataclass
class DenseIndex:
    """Row matrix of unit-normalized sentence embeddings."""

    vectors: np.ndarray
    dim: int

    @classmethod
    def from_vectors(cls, vectors: np.ndarray) -> "DenseIndex":
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[0] == 0:
            raise EmptyCorpus("need a non-empty 2-D embedding matrix")
        normalized = np.empty_like(vectors)
        for i, row in enumerate(vectors):
            norm = math.sqrt(float(np.dot(row, row)))
            if norm == 0.0:
                raise ZeroVector(f"embedding row {i} is all zeros")
            normalized[i] = row / norm
        return cls(vectors=normalized, dim=vectors.shape[1])


def build_dense(corpus: Corpus) -> DenseIndex:
    """Index the embeddings attached to `corpus` (every example must carry one)."""
    if len(corpus) == 0:
        raise EmptyCorpus("cannot index an empty corpus")
    missing = [ex.id for ex in corpus.examples if ex.embedding is None]
    if missing:
        raise ZeroVector(f"{len(missing)} examples have no embedding (first: id {missing[0]})")
    return DenseIndex.from_vectors(np.stack([ex.embedding for ex in corpus.examples]))


def dense_topk(index: DenseIndex, query_vector: np.ndarray, k: int) -> List[Tuple[int, float]]:
    """Top-k rows by cosine similarity, descending, ties broken by lower id.

    Scores are the row-by-row `np.dot(row, nq)`, bit for bit; the one
    `np.vecdot` pass only decides which rows need that exact score.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    q = np.asarray(query_vector, dtype=np.float64)
    if q.shape != (index.dim,):
        raise DimensionMismatch(f"query has shape {q.shape}, index dim is {index.dim}")
    norm = math.sqrt(float(np.dot(q, q)))
    if norm == 0.0:
        raise ZeroVector("query vector is all zeros")
    nq = q / norm
    vectors = index.vectors
    if k < len(vectors):
        # vecdot, not `vectors @ nq`: OpenBLAS runs a matrix-vector product
        # this size on its own worker threads, outside the caller's CPU
        # affinity and beside select_batch's workers; vecdot stays on the
        # calling thread
        approx = np.vecdot(vectors, nq)
        kth = np.partition(approx, len(approx) - k)[len(approx) - k]
        # Any summation order of an n-term dot product of unit vectors is
        # within gamma_n = n*u/(1 - n*u) (u = eps/2) of the true value, so
        # the vecdot pass and the row-wise score differ by at most 2*gamma_n.
        # If a row is in the exact top k, its exact score is >= the exact
        # k-th score s, so its approximate score is >= s - 2*gamma_n; and the
        # approximate k-th score is <= s + 2*gamma_n, or k rows would score
        # exactly above s. Every exact top-k row therefore lies within
        # 4*gamma_n of the approximate k-th score; 4*n*eps ~ 8*gamma_n
        # leaves a factor of two for the rows' and query's norm rounding.
        band = 4 * index.dim * np.finfo(np.float64).eps
        rows = np.flatnonzero(approx >= kth - band)
    else:
        rows = np.arange(len(vectors))
    exact = [np.dot(vectors[i], nq) for i in rows]
    return top_k(exact, k, rows)
