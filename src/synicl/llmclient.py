"""Chat-completions HTTP client with retries, plus a resumable batch runner.

A prompt is the list of `{"role", "content"}` message dicts that goes on
the wire. `build_prompt_for_selection` builds it for one selection (a
completion-style prompt is one user message holding the flat text), and it
is sent, fingerprinted and dumped as it is.

Every request is sent with temperature 0.0 and no sampling options; the
temperature is a module constant, not a parameter, so no call site can turn
sampling back on. Batch runs journal one JSON line per query as soon as it
finishes; a rerun skips queries whose (query id, request fingerprint)
already has a successful journal entry, so interrupted runs resume where
they left off, and edited prompts or another model or endpoint are
re-executed. The first authentication failure stops the batch.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import requests

from .pipeline import MalformedSelection, SelectionResult
from .prompt import build_chat_prompt, build_completion_prompt, extract_correction_flagged
from .treebank import Corpus, Example, InputError

TEMPERATURE = 0.0
RETRYABLE_STATUS = {429, 500, 502, 503, 504}
RETRY_BACKOFF = 0.5  # seconds before the first retry, doubled before each next one


class LlmClientError(RuntimeError):
    retries = 0  # retries made before the request gave up


class MalformedJournal(InputError):
    pass


class TransportError(LlmClientError):
    pass


class AuthFailure(LlmClientError):
    pass


class MalformedResponse(LlmClientError):
    pass


@dataclass
class EndpointConfig:
    base_url: str
    model: str
    api_key_env: str = "OPENAI_API_KEY"
    timeout: float = 60.0
    max_retries: int = 3
    jobs: int = 4  # in-flight request cap

    @property
    def api_key(self) -> Optional[str]:
        return os.environ.get(self.api_key_env) or None


@dataclass
class RunRecord:
    query_id: int
    fingerprint: str
    raw_output: str
    correction: str
    latency_ms: float
    retry_count: int
    error: Optional[str] = None
    flag: Optional[str] = None


def fingerprint(messages: List[Dict[str, str]], config: EndpointConfig) -> str:
    """Stable hash of what a request asks: endpoint URL, model and messages."""
    request = {"url": _completions_url(config), "model": config.model, "messages": messages}
    payload = json.dumps(request, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _completions_url(config: EndpointConfig) -> str:
    return config.base_url.rstrip("/") + "/chat/completions"


def complete(config: EndpointConfig, messages: List[Dict[str, str]]) -> Tuple[str, int]:
    """Return the model text for `messages` and the retries made, retrying transient failures."""
    url = _completions_url(config)
    body = {"model": config.model, "messages": messages, "temperature": TEMPERATURE}
    headers = {}
    key = config.api_key
    if key:
        headers["Authorization"] = f"Bearer {key}"

    last_error: Optional[str] = None
    retries = 0
    try:
        for attempt in range(config.max_retries + 1):
            if attempt > 0:
                time.sleep(RETRY_BACKOFF * (2 ** (attempt - 1)))
                retries = attempt
            try:
                resp = requests.post(url, json=body, headers=headers, timeout=config.timeout)
            except (requests.Timeout, requests.ConnectionError) as exc:
                last_error = f"{type(exc).__name__}: {exc}"
                continue
            if resp.status_code in (401, 403):
                raise AuthFailure(f"HTTP {resp.status_code} from {url}")
            if resp.status_code in RETRYABLE_STATUS:
                last_error = f"HTTP {resp.status_code}"
                continue
            if resp.status_code != 200:
                raise TransportError(f"HTTP {resp.status_code} from {url}: {resp.text[:200]}")
            try:
                content = resp.json()["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise MalformedResponse(f"unexpected response body from {url}: {exc}") from exc
            if not isinstance(content, str):
                raise MalformedResponse(f"non-string content in response from {url}")
            return content, retries
        raise TransportError(
            f"request to {url} failed after {config.max_retries} retries (last: {last_error})"
        )
    except LlmClientError as exc:
        exc.retries = retries
        raise


_REQUIRED = object()
# each journal field: the types its value may have, and its value when absent
_JOURNAL_FIELDS = {
    "query_id": (int, _REQUIRED),
    "fingerprint": (str, _REQUIRED),
    "raw_output": (str, ""),
    "correction": (str, ""),
    "latency_ms": ((int, float), 0.0),
    "retry_count": (int, 0),
    "error": ((str, type(None)), None),
    "flag": ((str, type(None)), None),
}


def _journal_record(data: object, where: str) -> RunRecord:
    """The record of one parsed journal line, `where` in errors.

    A missing or mistyped field raises MalformedJournal. A bool is refused
    where a number is due: JSON `true` would otherwise load as query id 1.
    """
    if not isinstance(data, dict):
        raise MalformedJournal(f"{where}: not a journal record but a JSON {type(data).__name__}")
    fields = {}
    for name, (kind, default) in _JOURNAL_FIELDS.items():
        value = data.get(name, default)
        if value is _REQUIRED:
            raise MalformedJournal(f"{where}: not a journal record, no {name!r}")
        if isinstance(value, bool) or not isinstance(value, kind):
            raise MalformedJournal(f"{where}: {name!r} has the wrong type "
                                   f"({type(value).__name__} {value!r:.80})")
        fields[name] = value
    return RunRecord(**fields)


def load_journal(path: str) -> Dict[Tuple[int, str], RunRecord]:
    """Read an existing journal; the last record per (query id, fingerprint) wins.

    An unterminated last line that does not parse is the torn tail of a crash
    mid-write, and is skipped. Any other bad line raises MalformedJournal.
    """
    records: Dict[Tuple[int, str], RunRecord] = {}
    if not os.path.exists(path):
        return records
    with open(path, "rb") as f:  # bytes, so a torn UTF-8 sequence fails in json.loads
        for number, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                data = json.loads(line)
            except ValueError as exc:
                if not line.endswith(b"\n"):
                    break
                raise MalformedJournal(f"{path} line {number}: not JSON ({exc})") from exc
            rec = _journal_record(data, f"{path} line {number}")
            records[(rec.query_id, rec.fingerprint)] = rec
    return records


def _start_fresh_line(path: str) -> None:
    """Before appending, end the journal on a line break.

    An unterminated last line is cut if it does not parse (`load_journal`
    skipped it) and terminated if it does (`load_journal` read it).
    """
    if not os.path.exists(path):
        return
    with open(path, "rb+") as f:
        last = b""
        for last in f:
            pass
        if not last or last.endswith(b"\n"):
            return
        try:
            json.loads(last)
        except ValueError:
            f.truncate(f.tell() - len(last))
        else:
            f.write(b"\n")


@dataclass
class _Task:
    query: Example
    messages: List[Dict[str, str]]
    fingerprint: str
    cached: Optional[RunRecord] = None


def build_prompt_for_selection(
    result: SelectionResult,
    train_corpus: Corpus,
    test_source: str,
    style: str,
    most_similar_last: bool = False,
) -> List[Dict[str, str]]:
    """The messages of one selection's prompt in `style` ("chat" or "completion").

    Examples go most similar first; `most_similar_last` reverses the order.
    Raises MalformedSelection for a chosen id outside `train_corpus`.
    """
    ids = result.chosen_ids()
    bad = [ex_id for ex_id in ids if not 0 <= ex_id < len(train_corpus)]
    if bad:
        raise MalformedSelection(f"query {result.query_id} chose example ids {bad} outside "
                                 f"the {len(train_corpus)}-example training corpus")
    pairs = [(train_corpus[ex_id].source, train_corpus[ex_id].target) for ex_id in ids]
    if most_similar_last:
        pairs.reverse()
    if style == "completion":
        return [{"role": "user", "content": build_completion_prompt(pairs, test_source)}]
    if style == "chat":
        return build_chat_prompt(pairs, test_source)
    raise ValueError(f"unknown prompt style {style!r}")


def selection_prompts(
    selections: Sequence[SelectionResult],
    train_corpus: Corpus,
    queries: Corpus,
    style: str,
    most_similar_last: bool = False,
) -> List[Tuple[Example, List[Dict[str, str]]]]:
    """(query, messages) per selection, in input order.

    Raises MalformedSelection for a query id that `queries` does not hold.
    """
    by_id = {ex.id: ex for ex in queries.examples}
    prompts = []
    for result in selections:
        query = by_id.get(result.query_id)
        if query is None:
            raise MalformedSelection(f"selection references unknown query id {result.query_id}")
        prompts.append((query, build_prompt_for_selection(
            result, train_corpus, query.source, style, most_similar_last)))
    return prompts


def run_batch(
    config: EndpointConfig,
    selections: Sequence[SelectionResult],
    train_corpus: Corpus,
    queries: Corpus,
    style: str,
    journal_path: str,
    most_similar_last: bool = False,
    jobs: Optional[int] = None,
) -> List[RunRecord]:
    """Execute one request per selection, journaling incrementally.

    Results come back in input order regardless of completion order. Queries
    with a successful journaled record for the same fingerprint (messages,
    model and endpoint URL) are skipped; errored records are retried.
    Per-query failures are journaled (with the test source as the fallback
    correction) and the batch goes on, except an AuthFailure: it is
    journaled, no further request starts, and it is re-raised.
    """
    existing = load_journal(journal_path)

    tasks: List[_Task] = []
    for query, messages in selection_prompts(
        selections, train_corpus, queries, style, most_similar_last
    ):
        fp = fingerprint(messages, config)
        cached = existing.get((query.id, fp))
        if cached is not None and cached.error is not None:
            cached = None  # retry failures
        tasks.append(_Task(query, messages, fp, cached))

    journal_lock = threading.Lock()
    os.makedirs(os.path.dirname(os.path.abspath(journal_path)), exist_ok=True)
    _start_fresh_line(journal_path)
    journal = open(journal_path, "a", encoding="utf-8")

    auth_failures: List[AuthFailure] = []

    def execute(task: _Task) -> Optional[RunRecord]:
        if task.cached is not None:
            return task.cached
        if auth_failures:
            return None  # the endpoint refused the credentials: start no more requests
        start = time.monotonic()
        try:
            raw, retries = complete(config, task.messages)
            correction, flag = extract_correction_flagged(raw, task.query.source)
            record = RunRecord(
                query_id=task.query.id,
                fingerprint=task.fingerprint,
                raw_output=raw,
                correction=correction,
                latency_ms=(time.monotonic() - start) * 1000.0,
                retry_count=retries,
                flag=flag,
            )
        except LlmClientError as exc:
            record = RunRecord(
                query_id=task.query.id,
                fingerprint=task.fingerprint,
                raw_output="",
                correction=task.query.source,
                latency_ms=(time.monotonic() - start) * 1000.0,
                retry_count=exc.retries,
                error=f"{type(exc).__name__}: {exc}",
            )
            if isinstance(exc, AuthFailure):
                auth_failures.append(exc)
        with journal_lock:
            journal.write(json.dumps(asdict(record), ensure_ascii=False) + "\n")
            journal.flush()
        return record

    try:
        workers = jobs if jobs is not None else config.jobs
        if workers <= 1:
            records = [execute(t) for t in tasks]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                records = list(pool.map(execute, tasks))
    finally:
        journal.close()
    if auth_failures:
        raise auth_failures[0]
    return records
