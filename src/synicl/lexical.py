"""Stage-I retrieval: Okapi BM25 over source sentences, cosine over embeddings.

BM25 uses the non-negative idf form ln(1 + (N - n + 0.5) / (n + 0.5)) with
the module constants K1 = 1.2 and B = 0.75, and `tokenize` on both
documents and queries. The index stores each posting's whole term weight,
so a query only adds weights, term after term in query order. A term in at
least a quarter of the documents is stored as one dense score column (its
weight at its documents, 0.0 elsewhere), which a query adds in one
contiguous pass; every other term keeps its (doc ids, weights) postings,
which a query adds through an index. Zipf-distributed text puts most of a
query's postings in its few such terms. Adding a column's 0.0 leaves a
score unchanged, so the scores have the bits of adding postings only.

The BM25 build reads its documents once and holds no Python object per
token: only the vocabulary, the tokens of the document being read, and two
int64 buffers, one term id per token and one length per document. The
numpy arrays that count and weigh the postings come from those buffers.

Every top k comes from one survivor step: a partition finds the k-th best
score, every better score survives, and of the scores tied with it as many
as fit, lower ids first. `top_k` sorts only those k survivors, into
`(id, score)` pairs ranked as a full sort would rank them; `bm25_topk`
returns them. `bm25_candidates` returns the same BM25 ids unranked, as an
ascending int array, for a caller that needs only the set: a stage II that
scores each candidate on its own and breaks its own ties by the lower id.

Embeddings are an external input (any encoder producing one vector per
sentence). The dense index reads the corpus's float64 embedding matrix in
place, not copied, and keeps each row's L2 norm and the unit rows rounded
to float32.

Dense top-k is exact: a row's score is its float64 unit row dotted with the
unit query, `np.dot(row / norm, nq)`, bit for bit. One float32 `np.vecdot`
over the unit rows, on the calling thread (a BLAS matrix-vector product
would run on worker threads outside the caller's CPU affinity), scores
every row approximately; only the rows whose approximate score lies within
a band of the approximate k-th score are then scored exactly. The band,
4 * dim * eps32, is derived from the float32 rounding of the unit rows and
the query and from the float32 dot product (see `dense_topk`). It is wide
enough that every row of the exact top k is inside it, and on 384-dim
embeddings it holds about k rows.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .treebank import Corpus, DimensionMismatch, InputError, _segments

# Okapi term-frequency saturation and document-length normalisation
K1 = 1.2
B = 0.75


class EmptyCorpus(InputError):
    pass


class ZeroVector(InputError):
    """A vector whose float64 L2 norm is 0 or not finite, or a corpus with no vectors."""


def tokenize(text: str) -> List[str]:
    """Lowercased whitespace tokens; no stemming, no punctuation handling."""
    return text.lower().split()


@dataclass
class Bm25Index:
    """Inverted index holding each posting's Okapi term weight.

    A posting's weight is its whole contribution to the document's score,
    idf * (tf * (K1 + 1)) / (tf + K1 * (1 - B + B * dl / avgdl)), computed
    once here with the same operations in the same order as a per-query
    evaluation, so a query only adds weights.

    `postings` maps every term of the vocabulary to `(ids, weights)`, which
    `bm25_scores` adds as `scores[ids] += weights`. A term in fewer than a
    quarter of the documents (4 * df < n_docs) keeps its postings: its doc
    ids, ascending, and their weights. Any other term is dense: `ids` is
    `slice(None)` and `weights` one float64 column of length `n_docs`, the
    term's weight at its documents and 0.0 elsewhere (the threshold is
    derived in `build`). The scores keep their bits: every weight is > 0 and
    scores start at +0.0, so a column's 0.0 leaves a score as it is, and
    each document still gets its weights in query-token order, one IEEE
    addition each. Every array is read-only, so no caller can change later
    scores through the index.
    """

    n_docs: int
    # term -> (doc ids, weights), or (slice(None), dense column) for a term in
    # at least a quarter of the documents
    postings: Dict[str, Tuple[Union[np.ndarray, slice], np.ndarray]]

    @classmethod
    def build(cls, docs_tokens: Iterable[Sequence[str]]) -> "Bm25Index":
        """Index the documents of `docs_tokens`, read once, in order.

        Any iterable of token sequences will do. Besides the vocabulary, the
        build holds one document's tokens at a time: each token becomes its
        term id (numbered in order of first occurrence) in one int64 buffer,
        8 bytes a token, and each document its length in another.
        """
        term_ids: Dict[str, int] = {}
        terms = array("q")
        doc_lengths = array("q")
        for doc in docs_tokens:
            terms.extend([term_ids.setdefault(token, len(term_ids)) for token in doc])
            doc_lengths.append(len(doc))
        if not doc_lengths:
            raise EmptyCorpus("cannot index an empty corpus")
        n = len(doc_lengths)
        lengths = np.frombuffer(doc_lengths, dtype=np.int64)
        avgdl = float(len(terms)) / n

        if avgdl > 0:
            k1_norm = K1 * (1.0 - B + B * lengths / avgdl)
        else:
            # corpus of empty documents: every query scores 0 anyway
            k1_norm = np.full(n, K1 * (1.0 - B))
        # one (term, doc) key per token occurrence; counting the distinct keys
        # gives every posting, sorted by term and then by doc id
        docs = _segments(lengths)
        keys, tfs = np.unique(np.frombuffer(terms, dtype=np.int64) * n + docs, return_counts=True)
        ids = keys % n
        bounds = np.searchsorted(keys // n, np.arange(len(term_ids) + 1))
        doc_freq = np.diff(bounds)
        idf = [math.log(1.0 + (n - n_t + 0.5) / (n_t + 0.5)) for n_t in doc_freq.tolist()]
        tfs = tfs.astype(np.float64)
        # elementwise the operations of idf * ((tfs * (K1 + 1.0)) / (tfs + k1_norm[ids]))
        # on one term's postings, so every weight has the same bits
        weights = np.repeat(idf, doc_freq) * ((tfs * (K1 + 1.0)) / (tfs + k1_norm[ids]))
        # A term in at least a quarter of the documents becomes one score column.
        # On one vCPU of a 2-vCPU x86-64 VM, adding a float64 column to the
        # scores costs ~0.38 ns a document and an indexed add ~3.2 ns a
        # posting, so at df = n/4 the column is already 3.2 / 4 / 0.38 ~ 2.1x
        # cheaper; and its 8n bytes are at most twice the 16 * df bytes of the
        # postings it replaces (fewer than them above df = n/2). A lower share
        # would trade more memory for less time. Each posting is one bin, so
        # `bincount` stores each weight as 0.0 + w == w.
        dense = 4 * doc_freq >= n
        bounds = bounds.tolist()
        columns = {t: np.bincount(ids[bounds[t]:bounds[t + 1]], weights[bounds[t]:bounds[t + 1]], n)
                   for t in np.flatnonzero(dense).tolist()}
        # the other terms' postings, packed without the dense terms'
        sparse = np.repeat(~dense, doc_freq)
        ids, weights = ids[sparse], weights[sparse]
        bounds = [0] + np.cumsum(np.where(dense, 0, doc_freq)).tolist()
        for part in (ids, weights, *columns.values()):
            part.flags.writeable = False
        postings = {token: (slice(None), columns[t]) if t in columns
                    else (ids[bounds[t]:bounds[t + 1]], weights[bounds[t]:bounds[t + 1]])
                    for token, t in term_ids.items()}

        return cls(n_docs=n, postings=postings)


def build_bm25(corpus: Corpus) -> Bm25Index:
    """Index the tokenized source sentences of `corpus`."""
    return Bm25Index.build(tokenize(ex.source) for ex in corpus.examples)


def bm25_scores(index: Bm25Index, query: str) -> np.ndarray:
    """Okapi score of every document for `query` (dense vector, one per doc).

    A token that occurs twice in the query adds its weights twice. A dense
    term's entry is `(slice(None), column)`, so the same line adds its
    column in one contiguous pass.
    """
    scores = np.zeros(index.n_docs)
    for token in tokenize(query):
        entry = index.postings.get(token)
        if entry is not None:
            ids, weights = entry
            scores[ids] += weights
    return scores


def _survivors(keys: np.ndarray, k: int, ids: Optional[np.ndarray] = None) -> np.ndarray:
    """Ascending positions of the k smallest keys; ties at the k-th key go to the lower ids.

    One partition finds the k-th key. Every key below it survives, and of
    the keys equal to it as many as fit, lower ids first. `ids` defaults to
    positions, which are already in order. Raises ValueError when k < 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k >= len(keys):
        return np.arange(len(keys))
    kth = np.partition(keys, k - 1)[k - 1]
    keep = keys < kth
    tied = np.flatnonzero(keys == kth)
    if ids is not None:
        tied = tied[np.argsort(ids[tied], kind="stable")]
    keep[tied[: k - np.count_nonzero(keep)]] = True
    return np.flatnonzero(keep)


def top_k(
    scores: Sequence[float], k: int, ids: Optional[Sequence[int]] = None, smallest: bool = False
) -> List[Tuple[int, float]]:
    """The k best (id, score) pairs, exactly as a full sort would rank them.

    Highest scores come first, or lowest when `smallest` (distances); ties go
    to the lower id. `ids` defaults to positions; scores must not be NaN.
    Only the k survivors of `_survivors` are sorted.
    """
    scores = np.asarray(scores, dtype=np.float64)
    keys = scores if smallest else -scores
    ids = None if ids is None else np.asarray(ids)
    keep = _survivors(keys, k, ids)
    ids = keep if ids is None else ids[keep]
    order = np.lexsort((ids, keys[keep]))
    return list(zip(ids[order].tolist(), scores[keep][order].tolist()))


def bm25_topk(index: Bm25Index, query: str, k: int) -> List[Tuple[int, float]]:
    """Top-k documents by BM25 score, descending, ties broken by lower doc id."""
    return top_k(bm25_scores(index, query), k)


def bm25_candidates(index: Bm25Index, query: str, k: int) -> np.ndarray:
    """The doc ids of `bm25_topk(index, query, k)`, ascending, as an int array.

    For a caller that needs only the set: the survivors of one partition,
    never ranked.
    """
    scores = bm25_scores(index, query)
    return _survivors(np.negative(scores, out=scores), k)


@dataclass
class DenseIndex:
    """Sentence embeddings indexed for cosine top-k.

    `matrix` is the read-only float64 `(n, dim)` matrix `from_vectors` got,
    not copied (`build_dense` passes the corpus's own), `norms[i]` the L2
    norm of row i, and `unit32` the unit rows `matrix[i] / norms[i]` rounded
    to float32, the matrix `dense_topk` scans first. All three are read-only,
    so neither the norms nor the float32 rows can go stale through the index.
    """

    matrix: np.ndarray
    norms: np.ndarray
    unit32: np.ndarray

    @property
    def dim(self) -> int:
        return self.unit32.shape[1]

    @classmethod
    def from_vectors(cls, vectors: np.ndarray) -> "DenseIndex":
        """Index the rows of `vectors`, a non-empty 2-D matrix, read as a float64 view."""
        matrix = np.asarray(vectors, dtype=np.float64).view()
        if matrix.ndim != 2 or not matrix.size:
            raise EmptyCorpus("need a non-empty 2-D embedding matrix")
        matrix.flags.writeable = False
        # float64 np.vecdot runs the BLAS dot that np.dot runs on each row
        with np.errstate(over="ignore", invalid="ignore"):
            norms = np.sqrt(np.vecdot(matrix, matrix))
        bad = np.flatnonzero(~np.isfinite(norms) | (norms == 0.0))
        if bad.size:
            raise ZeroVector(f"embedding row {bad[0]} has float64 L2 norm {norms[bad[0]]}, "
                             "so it has no unit vector")
        # divided in float64 and rounded into float32, with no float64 temporary
        unit32 = np.empty(matrix.shape, dtype=np.float32)
        np.divide(matrix, norms[:, None], out=unit32, casting="same_kind")
        norms.flags.writeable = unit32.flags.writeable = False
        return cls(matrix=matrix, norms=norms, unit32=unit32)


def build_dense(corpus: Corpus) -> DenseIndex:
    """Index the embedding matrix of `corpus`, read in place."""
    if len(corpus) == 0:
        raise EmptyCorpus("cannot index an empty corpus")
    if corpus.embeddings is None:
        raise ZeroVector("the corpus has no embeddings")
    return DenseIndex.from_vectors(corpus.embeddings)


def dense_topk(index: DenseIndex, query_vector: np.ndarray, k: int) -> List[Tuple[int, float]]:
    """Top-k rows by cosine similarity, descending, ties broken by lower id.

    A row's score is `np.dot(matrix[i] / norms[i], q / |q|)` in float64, bit
    for bit: the unit row `from_vectors` normalised, dotted with the unit
    query, taken for every row that needs it in one float64 `np.vecdot`.
    The float32 `np.vecdot` pass over `unit32` only decides which rows need
    that score.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    q = np.asarray(query_vector, dtype=np.float64)
    if q.shape != (index.dim,):
        raise DimensionMismatch(f"query has shape {q.shape}, index dim is {index.dim}")
    with np.errstate(over="ignore", invalid="ignore"):
        norm = math.sqrt(float(np.dot(q, q)))
    if not 0.0 < norm < math.inf:
        raise ZeroVector(f"the query vector has float64 L2 norm {norm}, so it has no unit vector")
    nq = q / norm
    n = len(index.norms)
    if k < n:
        # vecdot, not `unit32 @ nq32`: OpenBLAS runs a matrix-vector product
        # this size on its own worker threads, outside the caller's CPU
        # affinity and beside select_batch's workers; vecdot stays on the
        # calling thread
        approx = np.vecdot(index.unit32, nq.astype(np.float32))
        kth = np.partition(approx, n - k)[n - k]
        # With u = eps32/2 and n = dim: rounding the unit row and the unit
        # query to float32 moves their dot product by at most 2u + u^2, a
        # float32 dot product in any summation order errs by at most
        # gamma_n = n*u/(1 - n*u), and the exact score itself by gamma_n in
        # float64 (all relative to |row||q| ~ 1). So each approximate
        # score is within e ~ (n + 2)*u of the exact one. A row of the
        # exact top k scores >= the exact k-th score s, so its approximate
        # score is >= s - e; and the approximate k-th score is <= s + e, or
        # k rows would score exactly above s. Every exact top-k row
        # therefore lies within 2e ~ (n + 2)*eps32 of the approximate k-th
        # score; 4*n*eps32 leaves a factor of about four. (The threshold is
        # rounded to float32, but rounding is monotone, so no float32 score
        # at or above the exact threshold falls below the rounded one.)
        band = 4 * index.dim * float(np.finfo(np.float32).eps)
        ids = np.flatnonzero(approx >= kth - band)
    else:
        ids = np.arange(n)
    # only the band rows are gathered, never the whole matrix, and divided in
    # place (a second band-sized array costs more than the division); float64
    # np.vecdot runs the BLAS dot that np.dot runs, so each score keeps
    # np.dot's bits
    band_rows = index.matrix[ids]
    band_rows /= index.norms[ids, None]
    return top_k(np.vecdot(band_rows, nq), k, ids)
