"""Tests of the benchmark itself, on tiny corpora (one or a few rounds each)."""

import dataclasses
import json
import os

import pytest

from perfbench import corpus
from perfbench.run import WORKLOADS, run_workload
from synicl import gecscore, pipeline

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "BENCHMARK.json")


def tiny(name, n_train=300, n_test=40, block=20, candidates=20):
    workload = WORKLOADS[name]
    spec = dataclasses.replace(workload.corpus, n_train=n_train, n_test=n_test)
    config = dict(workload.config,
                  candidate_size=min(workload.config["candidate_size"], candidates))
    return dataclasses.replace(workload, name=f"tiny-{name}", corpus=spec, config=config,
                               block=block)


def declared(kind):
    with open(BENCHMARK_JSON, encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def units(result):
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_prints_every_end_to_end_metric(name, tmp_path):
    result = run_workload(tiny(name), seed=3, seconds=0.0, trace=False, work_dir=str(tmp_path))
    assert result["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert units(result) == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["samples"] >= 100


def test_traced_run_prints_every_per_layer_metric(tmp_path):
    result = run_workload(tiny("select-dense-wpoly"), seed=3, seconds=0.0, trace=True,
                          work_dir=str(tmp_path / "work"), spans_dir=str(tmp_path))
    assert result["correct"], result["failures"]
    assert units(result) == declared("per_layer")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["treepoly.pairs"] == 20
    assert values["treepoly.scored_share"] == 1.0 and values["treepoly.attempted_pairs"] > 0
    assert values["llmclient.journal_hits"] * 4 == values["llmclient.run_batch_queries"]
    assert values["llmclient.requests_per_connection"] >= 1.0
    with open(tmp_path / "spans-tiny-select-dense-wpoly-seed3.tsv", encoding="utf-8") as f:
        header, *rows = f.read().splitlines()
    assert header.split("\t") == ["id", "name", "start", "end", "parent", "qid"]
    assert sum(row.split("\t")[1] == "pipeline.select" for row in rows) > 0


def test_corrupted_selection_counts_as_failed(tmp_path, monkeypatch):
    real_select_batch = pipeline.Selector.select_batch

    def corrupt(self, queries, jobs=1):
        results = real_select_batch(self, queries, jobs=jobs)
        first = results[0]
        results[0] = dataclasses.replace(first, chosen=list(reversed(first.chosen)))
        return results

    monkeypatch.setattr(pipeline.Selector, "select_batch", corrupt)
    result = run_workload(tiny("select-tk"), seed=3, seconds=0.0, trace=False,
                          work_dir=str(tmp_path))
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any("select_batch != select" in f for f in result["failures"])


def test_wrong_endpoint_reply_counts_as_failed(tmp_path):
    result = run_workload(tiny("gec-endpoint"), seed=3, seconds=0.0, trace=False,
                          work_dir=str(tmp_path), corrupt_every=7)
    assert not result["correct"]
    assert any("correction" in f for f in result["failures"])
    assert any("F0.5" in f for f in result["failures"])


def test_gold_m2_scores_targets_perfectly():
    spec = corpus.CorpusSpec(n_train=0, n_test=300, min_tokens=3, max_tokens=40)
    _, test = corpus.generate(spec, seed=5)
    golds = gecscore.parse_m2(corpus.gold_m2(test))
    report = gecscore.score_corpus([" ".join(s.target) for s in test], golds)
    assert report.tp > 100 and report.f_half == 1.0


def test_generator_is_deterministic():
    spec = corpus.CorpusSpec(n_train=20, n_test=10, min_tokens=3, max_tokens=16, embedding_dim=8)
    a_train, a_test = corpus.generate(spec, seed=11)
    b_train, b_test = corpus.generate(spec, seed=11)
    for a, b in zip(a_train + a_test, b_train + b_test):
        assert (a.words, a.heads, a.labels, a.target) == (b.words, b.heads, b.labels, b.target)
        assert (a.embedding == b.embedding).all()
