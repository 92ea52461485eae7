import json

import pytest
import requests

from synicl import llmclient
from synicl.llmclient import (
    AuthFailure,
    EndpointConfig,
    MalformedJournal,
    MalformedResponse,
    TransportError,
    build_prompt_for_selection,
    complete,
    fingerprint,
    load_journal,
    run_batch,
)
from synicl.pipeline import MalformedSelection, SelectionConfig, SelectionResult, Selector
from synicl.prompt import build_chat_prompt, build_completion_prompt

from conftest import make_synth_corpus, mock_endpoint  # noqa: F401 (fixture)
from test_prompt import FOUR_SHOT_EXAMPLES, TEST_SOURCE


def config_for(server, **kwargs):
    defaults = dict(base_url=server.base_url, model="test-model",
                    timeout=5.0, max_retries=3)
    defaults.update(kwargs)
    return EndpointConfig(**defaults)


@pytest.fixture(autouse=True)
def fast_retries(monkeypatch):
    monkeypatch.setattr(llmclient, "RETRY_BACKOFF", 0.01)


def user(text):
    return [{"role": "user", "content": text}]


def test_completion_prompt_travels_as_single_user_message(mock_endpoint):
    train = make_synth_corpus(4, seed=60)
    result = SelectionResult(query_id=0, chosen=[(2, 1.0), (0, 0.5)], stage1_pool_size=4)
    messages = build_prompt_for_selection(result, train, "fix this sentence", "completion")
    pairs = [(train[i].source, train[i].target) for i in (2, 0)]
    assert messages == user(build_completion_prompt(pairs, "fix this sentence"))
    server = mock_endpoint(reply_fn=lambda body: "echo")
    assert complete(config_for(server), messages) == ("echo", 0)
    assert len(server.requests) == 1
    body = server.requests[0]
    assert body["messages"] == messages
    assert body["model"] == "test-model"


def test_chat_messages_travel_verbatim(mock_endpoint):
    server = mock_endpoint(reply_fn=lambda body: "ok")
    messages = build_chat_prompt([("a", "b")], "c")
    complete(config_for(server), messages)
    assert server.requests[0]["messages"] == messages


def test_temperature_always_zero_on_the_wire(mock_endpoint):
    server = mock_endpoint(reply_fn=lambda body: "ok")
    cfg = config_for(server)
    complete(cfg, user("one"))
    complete(cfg, build_chat_prompt([], "two"))
    assert len(server.requests) == 2
    for body in server.requests:
        assert body["temperature"] == 0.0
        # no sampling knobs ride along
        assert set(body) == {"model", "messages", "temperature"}


def test_retry_on_429_then_success(mock_endpoint):
    server = mock_endpoint(reply_fn=lambda body: "recovered", status_plan=[429, 429])
    text, retries = complete(config_for(server), user("x"))
    assert text == "recovered"
    assert retries == 2
    assert len(server.requests) == 3


def test_retries_exhausted_raises_transport(mock_endpoint):
    server = mock_endpoint(status_plan=[503] * 10)
    with pytest.raises(TransportError, match="after 3 retries"):
        complete(config_for(server), user("x"))
    assert len(server.requests) == 4  # initial try + 3 retries


def test_auth_failure_not_retried(mock_endpoint):
    server = mock_endpoint(status_plan=[401])
    with pytest.raises(AuthFailure):
        complete(config_for(server), user("x"))
    assert len(server.requests) == 1


def test_malformed_body_raises(mock_endpoint):
    server = mock_endpoint(raw_body=b"this is not json")
    with pytest.raises(MalformedResponse):
        complete(config_for(server), user("x"))
    server2 = mock_endpoint(raw_body=json.dumps({"choices": []}).encode())
    with pytest.raises(MalformedResponse):
        complete(config_for(server2), user("x"))


def test_api_key_header(mock_endpoint, monkeypatch):
    server = mock_endpoint(reply_fn=lambda body: "ok")
    monkeypatch.setenv("TEST_LLM_KEY", "sk-secret")
    complete(config_for(server, api_key_env="TEST_LLM_KEY"), user("x"))
    # header capture is not exposed by the mock; just assert the env hookup
    assert config_for(server, api_key_env="TEST_LLM_KEY").api_key == "sk-secret"


def test_fingerprint_stable_and_prompt_sensitive():
    cfg = EndpointConfig(base_url="http://host/v1", model="m")
    one = fingerprint(user("same prompt"), cfg)
    assert fingerprint(user("same prompt"), cfg) == one
    assert fingerprint(user("different prompt"), cfg) != one
    chat = build_chat_prompt([("a", "b")], "c")
    assert fingerprint(chat, cfg) == fingerprint(build_chat_prompt([("a", "b")], "c"), cfg)
    assert fingerprint(chat, cfg) != fingerprint(build_chat_prompt([("a", "x")], "c"), cfg)
    # the model and the endpoint are part of the request, a trailing slash is not
    same = user("same prompt")
    assert fingerprint(same, EndpointConfig(base_url="http://host/v1", model="n")) != one
    assert fingerprint(same, EndpointConfig(base_url="http://other/v1", model="m")) != one
    assert fingerprint(same, EndpointConfig(base_url="http://host/v1/", model="m")) == one


PINNED_CONFIG = EndpointConfig(base_url="http://127.0.0.1:8000/v1", model="gec-model")


def test_fingerprints_match_journals_written_by_earlier_versions():
    chat = build_chat_prompt(FOUR_SHOT_EXAMPLES, TEST_SOURCE)
    completion = user(build_completion_prompt(FOUR_SHOT_EXAMPLES, TEST_SOURCE))
    assert fingerprint(chat, PINNED_CONFIG) == (
        "4f605f83d2be297bcfb7968f8a6065666e8bc509e381ae753edc2cf5a84ebef2")
    assert fingerprint(completion, PINNED_CONFIG) == (
        "ecdfc0d5ee4b983931972c93c1348e81315cd5ce056c0d67395c22fde180ed9e")


def test_build_prompt_for_selection_order_flag_and_bounds():
    corpus = make_synth_corpus(10, seed=81)
    config = SelectionConfig(stage1="bm25", stage2="none", candidate_size=10, shots=3)
    result = Selector(corpus, config).select(make_synth_corpus(1, seed=82, vocab=corpus.vocab)[0])
    first = corpus[result.chosen_ids()[0]]
    forward = build_prompt_for_selection(result, corpus, "t", "chat")
    backward = build_prompt_for_selection(result, corpus, "t", "chat", most_similar_last=True)
    # system, then three user/assistant pairs, then the test source
    assert forward[1:7] == [m for i in (5, 3, 1) for m in backward[i:i + 2]]
    assert forward[1]["content"] == f"<erroneous sentence> {first.source} </erroneous sentence>"
    assert backward[-3]["content"] == forward[1]["content"]
    for bad_id in (-1, len(corpus)):
        bad = SelectionResult(query_id=0, chosen=[(0, 1.0), (bad_id, 0.5)], stage1_pool_size=2)
        for style in ("chat", "completion"):
            with pytest.raises(MalformedSelection, match=str(bad_id)):
                build_prompt_for_selection(bad, corpus, "t", style)


# ---------------------------------------------------------------------------
# batch runner
# ---------------------------------------------------------------------------

def batch_setup(n_train=6, n_test=3):
    train = make_synth_corpus(n_train, seed=70)
    test = make_synth_corpus(n_test, seed=71, vocab=train.vocab)
    config = SelectionConfig(stage1="bm25", stage2="none", candidate_size=n_train, shots=2)
    selections = Selector(train, config).select_batch(test.examples)
    return train, test, selections


def test_run_batch_journals_and_orders(tmp_path, mock_endpoint):
    train, test, selections = batch_setup()
    server = mock_endpoint(reply_fn=lambda body: "fixed output")
    journal = str(tmp_path / "journal.jsonl")
    records = run_batch(config_for(server), selections, train, test, "completion", journal)
    assert [r.query_id for r in records] == [s.query_id for s in selections]
    assert all(r.raw_output == "fixed output" for r in records)
    assert all(r.correction == "fixed output" for r in records)
    assert all(r.error is None for r in records)
    with open(journal, encoding="utf-8") as f:
        lines = [json.loads(line) for line in f]
    assert len(lines) == 3


def test_run_batch_resume_skips_done(tmp_path, mock_endpoint):
    train, test, selections = batch_setup()
    server = mock_endpoint(reply_fn=lambda body: "v1")
    journal = str(tmp_path / "journal.jsonl")
    cfg = config_for(server)
    run_batch(cfg, selections[:2], train, test, "chat", journal)
    assert len(server.requests) == 2
    # rerun over the full batch: only the missing query goes out
    records = run_batch(cfg, selections, train, test, "chat", journal)
    assert len(server.requests) == 3
    assert len(records) == 3
    assert [r.query_id for r in records] == [s.query_id for s in selections]


def test_run_batch_reruns_changed_prompts(tmp_path, mock_endpoint):
    train, test, selections = batch_setup()
    server = mock_endpoint(reply_fn=lambda body: "out")
    journal = str(tmp_path / "journal.jsonl")
    cfg = config_for(server)
    run_batch(cfg, selections, train, test, "completion", journal)
    assert len(server.requests) == 3
    # same journal, different prompt style -> new fingerprints -> re-executed
    run_batch(cfg, selections, train, test, "chat", journal)
    assert len(server.requests) == 6
    journal_records = load_journal(journal)
    assert len(journal_records) == 6


def test_run_batch_journals_failures_and_continues(tmp_path, mock_endpoint):
    train, test, selections = batch_setup()
    # query 0 ok; query 1 exhausts retries (4 attempts); query 2 ok
    server = mock_endpoint(reply_fn=lambda body: "good", status_plan=[200, 500, 500, 500, 500, 200])
    journal = str(tmp_path / "journal.jsonl")
    cfg = config_for(server)
    records = run_batch(cfg, selections, train, test, "completion", journal, jobs=1)
    assert records[0].error is None
    assert records[1].error is not None
    assert records[1].correction == test.examples[1].source  # unchanged fallback
    assert records[2].error is None
    # errored records are retried on rerun
    before = len(server.requests)
    records = run_batch(cfg, selections, train, test, "completion", journal, jobs=1)
    assert len(server.requests) == before + 1
    assert records[1].error is None
    assert records[1].correction == "good"


def test_run_batch_parallel_order_stable(tmp_path, mock_endpoint):
    train, test, selections = batch_setup(n_test=6)
    server = mock_endpoint(reply_fn=lambda body: "r")
    journal = str(tmp_path / "journal.jsonl")
    records = run_batch(config_for(server), selections, train, test, "completion",
                        journal, jobs=4)
    assert [r.query_id for r in records] == [s.query_id for s in selections]
    assert len(server.requests) == 6


def test_run_batch_resumes_after_torn_journal_line(tmp_path, mock_endpoint):
    train, test, selections = batch_setup()
    server = mock_endpoint(reply_fn=lambda body: "corrigé")
    journal = tmp_path / "journal.jsonl"
    cfg = config_for(server)
    run_batch(cfg, selections, train, test, "completion", str(journal), jobs=1)
    lines = journal.read_bytes().splitlines(keepends=True)
    assert len(lines) == 3
    # a crash mid-write: the last record stops inside the two bytes of "é"
    torn = lines[2][: lines[2].index("é".encode()) + 1]
    journal.write_bytes(lines[0] + lines[1] + torn)
    assert len(load_journal(str(journal))) == 2

    records = run_batch(cfg, selections, train, test, "completion", str(journal), jobs=1)
    assert len(server.requests) == 4  # only the torn query went out again
    assert [r.query_id for r in records] == [s.query_id for s in selections]
    assert all(r.error is None and r.correction == "corrigé" for r in records)
    assert journal.read_bytes().startswith(lines[0] + lines[1])
    assert len(load_journal(str(journal))) == 3
    assert all(json.loads(line) for line in journal.read_bytes().splitlines())


def test_run_batch_terminates_a_whole_unterminated_last_record(tmp_path, mock_endpoint):
    train, test, selections = batch_setup()
    server = mock_endpoint(reply_fn=lambda body: "out")
    journal = tmp_path / "journal.jsonl"
    cfg = config_for(server)
    run_batch(cfg, selections[:2], train, test, "completion", str(journal), jobs=1)
    journal.write_bytes(journal.read_bytes().rstrip(b"\n"))
    run_batch(cfg, selections, train, test, "completion", str(journal), jobs=1)
    assert len(server.requests) == 3  # both journaled records were hits
    assert len(load_journal(str(journal))) == 3


def test_bad_journal_line_names_path_and_line(tmp_path):
    journal = tmp_path / "journal.jsonl"
    good = json.dumps({"query_id": 0, "fingerprint": "f"})
    for bad in ("{not json", "[1, 2]", json.dumps({"query_id": 1})):
        journal.write_text(good + "\n" + bad + "\n" + good + "\n", encoding="utf-8")
        with pytest.raises(MalformedJournal, match=r"journal\.jsonl line 2"):
            load_journal(str(journal))
    # an unterminated last line that parses is a whole record
    journal.write_text(good + "\n" + json.dumps({"query_id": 1, "fingerprint": "g"}),
                       encoding="utf-8")
    assert sorted(load_journal(str(journal))) == [(0, "f"), (1, "g")]


def test_error_records_count_the_retries_made(tmp_path, mock_endpoint):
    train, test, selections = batch_setup(n_test=1)
    for status_plan, retries in (([401], 0), ([503] * 10, 3)):
        server = mock_endpoint(status_plan=status_plan)
        journal = str(tmp_path / f"journal{retries}.jsonl")
        if retries == 0:  # an auth failure is journaled, then stops the batch
            with pytest.raises(AuthFailure):
                run_batch(config_for(server), selections, train, test, "completion", journal)
        else:
            records = run_batch(config_for(server), selections, train, test, "completion", journal)
            assert records[0].error is not None
            assert records[0].retry_count == retries
        (record,) = load_journal(journal).values()
        assert record.error is not None
        assert record.retry_count == retries


def test_run_batch_stops_at_the_first_auth_failure(tmp_path, mock_endpoint):
    train, test, selections = batch_setup(n_test=5)
    server = mock_endpoint(status_plan=[401] * 10)
    journal = str(tmp_path / "journal.jsonl")
    with pytest.raises(AuthFailure):
        run_batch(config_for(server), selections, train, test, "completion", journal, jobs=1)
    assert len(server.requests) == 1
    (record,) = load_journal(journal).values()
    assert record.query_id == selections[0].query_id
    assert record.error.startswith("AuthFailure")


def test_journal_hits_need_the_same_model(tmp_path, mock_endpoint):
    train, test, selections = batch_setup()
    server = mock_endpoint(reply_fn=lambda body: body["model"])
    journal = str(tmp_path / "journal.jsonl")
    first = run_batch(config_for(server, model="model-a"), selections, train, test, "chat", journal)
    second = run_batch(config_for(server, model="model-b"), selections, train, test, "chat", journal)
    assert len(server.requests) == 6
    assert [body["model"] for body in server.requests] == ["model-a"] * 3 + ["model-b"] * 3
    assert all(r.raw_output == "model-a" for r in first)
    assert all(r.raw_output == "model-b" for r in second)
    # each model now resumes from its own records
    again = run_batch(config_for(server, model="model-a"), selections, train, test, "chat", journal)
    assert len(server.requests) == 6
    assert all(r.raw_output == "model-a" for r in again)


# One query (id 0) of batch_setup(n_test=1), journaled in chat and completion style
# against PINNED_CONFIG by an earlier version of run_batch.
EARLIER_JOURNAL = """\
{"query_id": 0, "fingerprint": "426f75c299bce61252f18fc14f02a7fc4eb0684e2930eed235ab444289c8352f", \
"raw_output": "<corrected sentence> fixed . </corrected sentence>", "correction": "fixed .", \
"latency_ms": 0.04469299892662093, "retry_count": 0, "error": null, "flag": null}
{"query_id": 0, "fingerprint": "41638492ce273e33c012448e5ef674598c76be2058a497facf7b668523af24cc", \
"raw_output": "<corrected sentence> fixed . </corrected sentence>", "correction": "fixed .", \
"latency_ms": 0.017506004951428622, "retry_count": 0, "error": null, "flag": null}
"""


def test_journals_written_by_earlier_versions_resume(tmp_path, monkeypatch):
    train, test, selections = batch_setup(n_test=1)
    journal = tmp_path / "journal.jsonl"
    journal.write_text(EARLIER_JOURNAL, encoding="utf-8")
    posts = []
    monkeypatch.setattr(requests, "post", lambda *args, **kwargs: posts.append(args))
    for style in ("chat", "completion"):
        (record,) = run_batch(PINNED_CONFIG, selections, train, test, style, str(journal))
        assert record.correction == "fixed ." and record.error is None
    assert posts == []
    assert journal.read_text(encoding="utf-8") == EARLIER_JOURNAL
