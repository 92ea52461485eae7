"""Example selection pipelines: single-stage or two-stage select-then-rank.

Stage I shrinks the training pool with a cheap lexical (BM25) or dense
(cosine) retriever; stage II re-ranks the candidate pool with a syntactic
similarity (tree kernel or polynomial distance) and keeps the top `shots`
examples. Either stage can be disabled (but not both). All rankings break
ties by lower example id, so results are deterministic and independent of
worker parallelism.

Whenever stage II can reach the tree kernel (`tree_kernel`, and the kernel
fallback of `poly` and `weighted_poly`), the `Selector` builds a
`treekernel.PoolForest` once, which reads the pool's forest in place (a
loaded bundle holds all its trees in one). Kernel re-ranking then scores
the stage-I candidates of a block of queries in one level-by-level numpy
pass, from the root pairs down to the deepest matching node pairs, and
picks each query's top `shots` from its own segment. `select_batch` runs
stage I query by query and hands the kernel whole queries in chunks of at
most `_BLOCK_ROOT_PAIRS` root pairs, which bounds a pass's memory; `select`
is a block of one. The other stage-II methods run query by query. The
pass is exact: leaf matches and child-count products are integers below
2**53, a pair with at most one nested score takes one correctly rounded
IEEE operation per step, and a pair with two or more sums them with
`math.fsum`, so every score has the bits of the per-pair
`treekernel.tree_kernel_similarity`, whatever the block.

The kernel takes each query's candidates as one int array of ids. It
scores each candidate on its own and breaks ties by the lower id, so it
needs only their set, not their stage-I order: BM25 hands over the
ascending ids of `lexical.bm25_candidates`, never ranked and never turned
into pairs. The other stage-II methods read the ordered stage-I pool of
`(id, score)` pairs.

The polynomial stages read the same forest: `treepoly.pool_polynomials`
expands every pool tree in one level-by-level numpy pass, whose
polynomials equal `treepoly.tree_to_polynomial`'s array for array, so
every distance keeps its bits. A query's polynomial still comes from
`tree_to_polynomial`.
"""

from __future__ import annotations

import json
import math
import numbers
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import lexical, treekernel, treepoly
from .treebank import Corpus, Example, InputError, in_one_forest, read_lines

STAGE1_METHODS = ("none", "bm25", "dense")
STAGE2_METHODS = ("none", "tree_kernel", "poly", "weighted_poly", "random")

# The most root pairs (query, candidate) one tree-kernel pass takes. A pass holds every
# level's node pairs at once, so its memory grows with its root pairs: about 200 bytes
# each under tracemalloc, on a pool of 35,000 trees of 3-40 tokens with 1,000 BM25
# candidates a query (perfbench's select-tk inputs): 0.2 MB for one query, 10.0 MB for
# 50 and 40.1 MB for 200. The per-query fixed cost is mostly spread by then: on one CPU
# the pass took 0.44 ms a query in blocks of 7 and 0.38 ms in blocks of 50. So a chunk
# of 65,536 root pairs (about 13 MB, 65 such queries) stays a few percent of that run's
# ~190 MB resident set.
_BLOCK_ROOT_PAIRS = 65_536


class InvalidConfig(InputError):
    pass


class MissingPrecomputation(InputError):
    pass


class MalformedSelection(InputError):
    """A selections record that is not what export_results writes, or one that
    names a query or example the loaded corpora do not hold."""


class BatchSelectionError(RuntimeError):
    """Raised by select_batch after the batch finishes with per-query failures."""

    def __init__(self, failures: List[Tuple[int, Exception]]):
        self.failures = failures
        summary = "; ".join(f"query {qid}: {exc}" for qid, exc in failures[:5])
        more = f" (+{len(failures) - 5} more)" if len(failures) > 5 else ""
        super().__init__(f"{len(failures)} queries failed: {summary}{more}")


@dataclass
class SelectionConfig:
    stage1: str = "bm25"
    stage2: str = "tree_kernel"
    candidate_size: int = 1000
    shots: int = 4
    random_seed: int = 0
    error_weight: float = 2.0
    term_budget: Optional[int] = treepoly.DEFAULT_TERM_BUDGET

    def validate(self) -> None:
        if self.stage1 not in STAGE1_METHODS:
            raise InvalidConfig(f"stage1 must be one of {STAGE1_METHODS}, got {self.stage1!r}")
        if self.stage2 not in STAGE2_METHODS:
            raise InvalidConfig(f"stage2 must be one of {STAGE2_METHODS}, got {self.stage2!r}")
        if self.stage1 == "none" and self.stage2 == "none":
            raise InvalidConfig("stage1 and stage2 cannot both be 'none'")
        # a float or a bool would pass the comparisons below and then fail
        # inside np.partition or a slice, or count as 1
        for name in ("shots", "candidate_size"):
            value = getattr(self, name)
            if not (_is_int(value) and value >= 1):
                raise InvalidConfig(f"{name} must be an int >= 1, got {value!r}")
        if self.candidate_size < self.shots:
            raise InvalidConfig("candidate_size must be >= shots")
        # a string would raise a raw TypeError in isfinite, and True would weigh 1.0
        if not (_is_real(self.error_weight) and math.isfinite(self.error_weight)
                and self.error_weight > 0):
            raise InvalidConfig(
                f"error_weight must be a finite number > 0, got {self.error_weight!r}")
        # the seed is formatted into each query's random.Random seed: 2.0 would seed
        # differently from 2
        if not _is_int(self.random_seed):
            raise InvalidConfig(f"random_seed must be an int, got {self.random_seed!r}")
        if self.term_budget is not None and not (_is_int(self.term_budget)
                                                 and self.term_budget >= 1):
            raise InvalidConfig(
                f"term_budget must be None or an int >= 1, got {self.term_budget!r}")


@dataclass
class SelectionResult:
    """The examples chosen for one query. A chosen id is a position in the pool corpus,
    which is also its `Example.id` in a loaded corpus; `llmclient` indexes by it."""

    query_id: int
    chosen: List[Tuple[int, float]]  # (pool position, stage-II score, or stage-I when stage2=none)
    stage1_pool_size: int
    fallbacks: List[Dict[str, object]] = field(default_factory=list)

    def chosen_ids(self) -> List[int]:
        return [ex_id for ex_id, _ in self.chosen]


class Selector:
    """Holds the per-corpus indices and precomputations for repeated selects.

    When stage II uses polynomial distances, the training and query corpora
    must have been loaded with one shared label vocabulary before the
    Selector is built (term vectors need a common width).
    """

    def __init__(self, corpus: Corpus, config: SelectionConfig):
        config.validate()
        if len(corpus) == 0:
            raise InvalidConfig("cannot select from an empty corpus")
        self.corpus = corpus
        self.config = config
        self.d = len(corpus.vocab)

        self.bm25: Optional[lexical.Bm25Index] = None
        self.dense: Optional[lexical.DenseIndex] = None
        if config.stage1 == "bm25":
            self.bm25 = lexical.build_bm25(corpus)
        elif config.stage1 == "dense":
            if corpus.embeddings is None:
                raise MissingPrecomputation("dense stage I needs an embedding for every example")
            self.dense = lexical.build_dense(corpus)

        # stage II reaches the kernel for tree_kernel, and as the fallback of poly;
        # both read one forest of the pool's trees
        self.kernel_pool: Optional[treekernel.PoolForest] = None
        if config.stage2 in ("tree_kernel", "poly", "weighted_poly"):
            trees = in_one_forest([ex.tree for ex in corpus.examples])
            self.kernel_pool = treekernel.PoolForest(trees)

        self.polynomials: Optional[List[Optional[treepoly.Polynomial]]] = None
        self.poly_terms: Optional[np.ndarray] = None  # int64 term counts, 0 where None
        self.weights: Optional[treepoly.WeightProfile] = None
        if config.stage2 in ("poly", "weighted_poly"):
            self.polynomials = treepoly.pool_polynomials(trees, corpus.vocab, config.term_budget)
            self.poly_terms = np.array(
                [0 if poly is None else len(poly) for poly in self.polynomials], dtype=np.int64)
            if config.stage2 == "weighted_poly":
                self.weights = treepoly.WeightProfile.error_weighted(
                    corpus.vocab, config.error_weight
                )

    # -- stage I ------------------------------------------------------------

    def _stage1_pool(self, query: Example) -> List[Tuple[int, float]]:
        """The stage-I candidates as (id, score) pairs, best first."""
        cfg = self.config
        if cfg.stage1 == "none":
            return [(position, 0.0) for position in range(len(self.corpus))]
        if cfg.stage1 == "bm25":
            assert self.bm25 is not None
            return lexical.bm25_topk(self.bm25, query.source, cfg.candidate_size)
        assert self.dense is not None
        if query.embedding is None:
            raise MissingPrecomputation(f"query {query.id} has no embedding for dense stage I")
        return lexical.dense_topk(self.dense, query.embedding, cfg.candidate_size)

    def _stage1_ids(self, query: Example) -> np.ndarray:
        """The ids of `_stage1_pool(query)` as an int array, in no promised order.

        For the tree kernel, which needs only their set: BM25 hands over its
        candidates unranked and ascending, and builds no pairs.
        """
        cfg = self.config
        if cfg.stage1 == "bm25":
            assert self.bm25 is not None
            return lexical.bm25_candidates(self.bm25, query.source, cfg.candidate_size)
        pool = self._stage1_pool(query)
        return np.fromiter((ex_id for ex_id, _ in pool), np.intp, len(pool))

    # -- stage II -----------------------------------------------------------

    def _rank_tree_kernel(self, query: Example, pool: List[int]) -> List[Tuple[int, float]]:
        assert self.kernel_pool is not None
        ids = np.asarray(pool, dtype=np.intp)
        return lexical.top_k(self.kernel_pool.scores([query.tree], [ids]), self.config.shots, ids)

    def _rank_poly(
        self, query: Example, pool: List[int], fallbacks: List[Dict[str, object]]
    ) -> List[Tuple[int, float]]:
        assert self.polynomials is not None
        if len(self.corpus.vocab) != self.d or max(query.tree.labels) >= self.d:
            raise MissingPrecomputation(
                "the label vocabulary changed after the Selector was built, or the query's "
                "labels are not in it; load every corpus with one LabelVocab before building "
                "the Selector"
            )
        try:
            query_poly = treepoly.tree_to_polynomial(
                query.tree, self.corpus.vocab, self.config.term_budget
            )
        except treepoly.TermBudgetExceeded:
            fallbacks.append({"kind": "query_poly_budget", "query_id": query.id})
            return self._rank_tree_kernel(query, pool)

        assert self.poly_terms is not None
        pairs = len(query_poly) * int(self.poly_terms[pool].sum())
        if pairs > treepoly.QUERY_PAIRS_CAP:
            fallbacks.append({"kind": "query_pair_budget", "query_id": query.id})
            return self._rank_tree_kernel(query, pool)
        distances = []
        for ex_id in pool:
            poly = self.polynomials[ex_id]
            if poly is None:
                fallbacks.append({"kind": "candidate_poly_budget", "example_id": ex_id})
                distances.append(math.inf)
                continue
            distances.append(treepoly.poly_distance(query_poly, poly, self.weights))
        return lexical.top_k(distances, self.config.shots, pool, smallest=True)

    def _select_one(self, query: Example) -> SelectionResult:
        """Both stages of one query, for every stage II but the tree kernel.

        These read the ordered stage-I pool: `none` keeps its top `shots`,
        `random` samples from it in score order, and `poly` records its
        `candidate_poly_budget` fallbacks in pool order.
        """
        cfg = self.config
        stage1 = self._stage1_pool(query)
        if cfg.stage2 == "none":
            return SelectionResult(query.id, stage1[: cfg.shots], len(stage1))
        fallbacks: List[Dict[str, object]] = []
        pool_ids = [ex_id for ex_id, _ in stage1]
        if cfg.stage2 == "random":
            rng = random.Random(f"{cfg.random_seed}:{query.id}")
            sample = rng.sample(pool_ids, min(cfg.shots, len(pool_ids)))
            chosen = [(ex_id, 0.0) for ex_id in sample]
        else:
            chosen = self._rank_poly(query, pool_ids, fallbacks)
        return SelectionResult(query.id, chosen, len(pool_ids), fallbacks)

    def _select_block(
        self, queries: Sequence[Example]
    ) -> Tuple[List[Optional[SelectionResult]], List[Tuple[int, Exception]]]:
        """Each query's result (None where it failed), and (query id, exception) per failure.

        Stage I runs query by query. Tree-kernel queries then wait, each with
        its candidate id array, in a chunk of whole queries, and each chunk
        takes one `PoolForest.scores` pass over all its candidates, each
        query's top `shots` picked from its own segment. Every score has the
        bits of a pass over one query alone.
        """
        cfg = self.config
        results: List[Optional[SelectionResult]] = [None] * len(queries)
        errors: Dict[int, Exception] = {}
        chunk: List[Tuple[int, np.ndarray]] = []  # (position, candidate ids), awaiting the pass
        chunk_pairs = 0

        def score_chunk() -> None:
            assert self.kernel_pool is not None
            try:
                scores = self.kernel_pool.scores([queries[i].tree for i, _ in chunk],
                                                 [ids for _, ids in chunk])
                ends = np.cumsum([len(ids) for _, ids in chunk]).tolist()
                chosen = [lexical.top_k(scores[end - len(ids): end], cfg.shots, ids)
                          for (_, ids), end in zip(chunk, ends)]
            except Exception as exc:  # noqa: BLE001 - the chunk's queries fail together
                errors.update((i, exc) for i, _ in chunk)
            else:
                for (i, ids), best in zip(chunk, chosen):
                    results[i] = SelectionResult(queries[i].id, best, len(ids))
            chunk.clear()

        for position, query in enumerate(queries):
            try:
                if cfg.stage2 != "tree_kernel":
                    results[position] = self._select_one(query)
                    continue
                ids = self._stage1_ids(query)
            except Exception as exc:  # noqa: BLE001 - aggregated by the caller
                errors[position] = exc
                continue
            if chunk and chunk_pairs + len(ids) > _BLOCK_ROOT_PAIRS:
                score_chunk()
                chunk_pairs = 0
            chunk.append((position, ids))
            chunk_pairs += len(ids)
        if chunk:
            score_chunk()
        return results, [(queries[i].id, errors[i]) for i in sorted(errors)]

    # -- public API ----------------------------------------------------------

    def select(self, query: Example) -> SelectionResult:
        (result,), failures = self._select_block([query])
        if failures:
            raise failures[0][1]
        return result

    def select_batch(self, queries: Sequence[Example], jobs: int = 1) -> List[SelectionResult]:
        """Element-wise equal to independent select() calls; order preserved.

        With `jobs` > 1, each of up to `jobs` worker threads selects one
        contiguous share of the queries.
        """
        if not (_is_int(jobs) and jobs >= 1):
            raise InvalidConfig(f"jobs must be an int >= 1, got {jobs!r}")
        workers = min(jobs, len(queries))
        if workers <= 1:
            outcomes = [self._select_block(queries)]
        else:
            bounds = [len(queries) * share // workers for share in range(workers + 1)]
            with ThreadPoolExecutor(max_workers=workers) as pool:
                outcomes = list(pool.map(self._select_block, [
                    queries[start:end] for start, end in zip(bounds, bounds[1:])]))
        failures = [fail for _, fails in outcomes for fail in fails]
        if failures:
            raise BatchSelectionError(failures)
        return [result for results, _ in outcomes for result in results]


def export_results(
    results: Sequence[SelectionResult], config: SelectionConfig, path: str
) -> None:
    """One JSON record per query: ids, scores, pool size, method tags, fallbacks."""
    with open(path, "w", encoding="utf-8") as f:
        for res in results:
            record = {
                "query_id": res.query_id,
                "chosen": [[ex_id, score] for ex_id, score in res.chosen],
                "stage1_pool_size": res.stage1_pool_size,
                "stage1": config.stage1,
                "stage2": config.stage2,
                "fallbacks": res.fallbacks,
            }
            f.write(json.dumps(record, sort_keys=True) + "\n")


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value: object) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def load_results(path: str) -> List[SelectionResult]:
    """Read the records of export_results; a malformed line raises MalformedSelection."""
    results = []
    for number, line in enumerate(read_lines(path), 1):
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise MalformedSelection(f"{path} line {number}: not JSON ({exc})") from exc
        if not (isinstance(record, dict) and _is_int(record.get("query_id"))
                and _is_int(record.get("stage1_pool_size"))
                and isinstance(record.get("chosen"), list)
                and all(isinstance(row, list) and len(row) == 2 and _is_int(row[0])
                        and (_is_int(row[1]) or isinstance(row[1], float))
                        for row in record["chosen"])):
            raise MalformedSelection(
                f"{path} line {number}: not a selection record (int query_id and "
                "stage1_pool_size, chosen as [[int id, score], ...])"
            )
        results.append(
            SelectionResult(
                query_id=record["query_id"],
                chosen=[(ex_id, float(score)) for ex_id, score in record["chosen"]],
                stage1_pool_size=record["stage1_pool_size"],
                fallbacks=record.get("fallbacks", []),
            )
        )
    return results
