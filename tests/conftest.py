"""Shared builders: hand-built trees, random trees, synthetic corpora, mock endpoint."""

import itertools
import json
import random
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from synicl import treepoly
from synicl.treebank import Corpus, DepNode, DepTree, Example, Forest, LabelVocab
from synicl.treepoly import TermBudgetExceeded, pool_polynomials, tree_to_polynomial


# ---------------------------------------------------------------------------
# tree builders
# ---------------------------------------------------------------------------

def build_tree(spec, vocab, sentence_id=0):
    """Build a DepTree from nested (label, [children...]) tuples.

    Token indices are assigned in pre-order, so sibling order is preserved.
    """
    counter = [0]

    def build(node_spec):
        label, child_specs = node_spec
        counter[0] += 1
        node = DepNode(token_index=counter[0], form=f"w{counter[0]}", label=vocab.add(label))
        node.children = [build(c) for c in child_specs]
        return node

    root = build(spec)
    return DepTree(root=root, n_tokens=counter[0], sentence_id=sentence_id)


def graph(tree):
    """The root of `tree` as freshly built DepNodes, children in token order.

    The nodes carry the tree's labels and structure; a tree keeps no forms,
    so each node's form is "_".
    """
    nodes = [DepNode(index, "_", label)
             for index, label in zip(range(1, tree.n_tokens + 1), tree.labels)]
    for node, head in zip(nodes, tree.heads):
        if head:
            nodes[head - 1].children.append(node)
        else:
            root = node
    return root


def tree_to_conllu(tree, vocab):
    """The tree as a 4-column CoNLL-U block (index, form, head, label), no trailing blank.

    A tree keeps no forms, so every form is the placeholder "_".
    """
    return "\n".join(f"{index}\t_\t{head}\t{vocab.labels[label]}" for index, head, label
                     in zip(range(1, tree.n_tokens + 1), tree.heads, tree.labels))


def reference_forest(trees, vocab):
    """The `Forest` lists of `trees`, built one node at a time as a reference.

    `trees` holds (label names, heads) per tree, in token order. A
    node's children are grouped by (label id in `vocab`, token index); each
    group counts its leaves and lists the node ids of its internal children.
    Returns a dict from each `Forest.__slots__` name to its list.
    """
    f = {name: [] for name in Forest.__slots__}
    f["group_start"], f["kid_start"], f["tree_start"] = [0], [0], [0]
    for names, heads in trees:
        base = len(f["labels"])
        labels = [vocab.labels.index(name) for name in names]
        children = [[] for _ in heads]
        for i, head in enumerate(heads):
            if head:
                children[head - 1].append(i)
            else:
                f["roots"].append(base + i)
        for kids in children:
            kids = sorted(kids, key=lambda child: (labels[child], child))
            for label, group in itertools.groupby(kids, key=labels.__getitem__):
                group = list(group)
                f["group_label"].append(label)
                f["group_leaves"].append(sum(not children[child] for child in group))
                f["kids"] += [base + child for child in group if children[child]]
                f["kid_start"].append(len(f["kids"]))
            f["group_start"].append(len(f["group_label"]))
        f["labels"] += labels
        f["heads"] += heads
        f["n_children"] += [len(kids) for kids in children]
        f["tree_start"].append(len(f["labels"]))
    return f


def narrowest_signed(largest):
    """The narrowest of int8, int16 and int32 that holds 0 to `largest`."""
    return next(np.dtype(t) for t in (np.int8, np.int16, np.int32) if largest <= np.iinfo(t).max)


def forest_dtypes(forest):
    """The dtype of each of `forest`'s arrays, by the documented rule.

    Ids and offsets are int32; labels and group_label take the narrowest
    signed dtype that holds the largest label, and heads, n_children and
    group_leaves the one that holds the longest tree's token count.
    """
    label = narrowest_signed(int(forest.labels.max(initial=0)))
    size = narrowest_signed(int(np.diff(forest.tree_start).max(initial=0)))
    dtypes = dict.fromkeys(Forest.__slots__, np.dtype(np.int32))
    dtypes.update(labels=label, group_label=label, heads=size, n_children=size, group_leaves=size)
    return dtypes


def forest_lists(forest):
    """A `Forest` as `reference_forest` gives it: each array, in its documented dtype, as a list."""
    lists = {}
    for name, dtype in forest_dtypes(forest).items():
        values = getattr(forest, name)
        assert values.dtype == dtype and values.ndim == 1, name
        lists[name] = values.tolist()
    return lists


def assert_pool_matches(trees, vocab, budget=treepoly.DEFAULT_TERM_BUDGET):
    """`pool_polynomials` equals `tree_to_polynomial` tree by tree; returns the refused count.

    Rows in values, dtype and C order, support and slot in values and
    dtypes, all three read-only, and None exactly where the reference raises.
    """
    pooled = pool_polynomials(trees, vocab, budget)
    assert len(pooled) == len(trees)
    refused = 0
    for tree, poly in zip(trees, pooled):
        try:
            want = tree_to_polynomial(tree, vocab, budget)
        except TermBudgetExceeded:
            assert poly is None
            refused += 1
            continue
        assert poly is not None and poly.d == want.d
        assert poly.rows.dtype == want.rows.dtype == np.int64
        assert poly.rows.shape == want.rows.shape and np.array_equal(poly.rows, want.rows)
        assert poly.rows.flags.c_contiguous
        assert np.array_equal(poly.support, want.support) and poly.support.dtype == bool
        assert poly.slot.dtype == want.slot.dtype and np.array_equal(poly.slot, want.slot)
        for array in (poly.rows, poly.support, poly.slot):
            assert not array.flags.writeable
    return refused


def leaf(label):
    return (label, [])


def node(label, *children):
    return (label, list(children))


def random_tree_spec(rng, n_nodes, labels):
    """Random attachment tree: node i hangs off a uniformly random earlier node."""
    children = [[] for _ in range(n_nodes)]
    for i in range(1, n_nodes):
        children[rng.randrange(i)].append(i)
    node_labels = [rng.choice(labels) for _ in range(n_nodes)]

    def build(i):
        return (node_labels[i], [build(c) for c in children[i]])

    return build(0)


# ---------------------------------------------------------------------------
# synthetic corpora
# ---------------------------------------------------------------------------

DEP_LABELS = [
    "Root", "punct", "case", "det", "nsubj", "advmod", "obj", "obl", "amod",
    "compound", "conj", "mark", "cc", "aux", "nmod", "cop", "xcomp", "ccomp",
    "advcl", "acl", "nummod", "expl", "appos", "fixed", "flat", "iobj",
    "csubj", "parataxis", "discourse", "vocative", "list", "orphan", "goeswith",
    "reparandum", "dep", "acl:relcl", "aux:pass", "nsubj:pass", "obl:tmod",
    "compound:prt", "det:predet", "nmod:poss", "S", "R", "M",
]

_WORDS = [f"word{i}" for i in range(6000)]
_WORD_CUM = None


def _word_cum_weights():
    global _WORD_CUM
    if _WORD_CUM is None:
        total = 0.0
        cum = []
        for rank in range(len(_WORDS)):
            total += 1.0 / (rank + 1.0)
            cum.append(total)
        _WORD_CUM = cum
    return _WORD_CUM


def make_synth_corpus(n_examples, seed=0, min_tokens=3, max_tokens=40, embedding_dim=None,
                      vocab=None, id_offset=0):
    """Fast in-memory corpus with random-attachment trees and Zipf-ish words."""
    rng = random.Random(seed)
    np_rng = np.random.default_rng(seed)
    vocab = vocab if vocab is not None else LabelVocab()
    root_label = vocab.add("Root")
    label_ids = [vocab.add(lb) for lb in DEP_LABELS]
    # skew toward frequent relations, keep error labels rarer
    label_weights = [1.0 / (r + 2.0) for r in range(len(label_ids))]

    examples = []
    for ex_id in range(id_offset, id_offset + n_examples):
        n = rng.randint(min_tokens, max_tokens)
        words = rng.choices(_WORDS, cum_weights=_word_cum_weights(), k=n)
        children = [[] for _ in range(n)]
        for i in range(1, n):
            children[rng.randrange(i)].append(i)
        labels = rng.choices(label_ids, weights=label_weights, k=n)
        nodes = [
            DepNode(token_index=i + 1, form=words[i],
                    label=(root_label if i == 0 else labels[i]))
            for i in range(n)
        ]
        for i, kids in enumerate(children):
            nodes[i].children = [nodes[c] for c in kids]
        tree = DepTree(root=nodes[0], n_tokens=n, sentence_id=ex_id)
        source = " ".join(words)
        # target: drop or duplicate one word now and then
        target_words = list(words)
        roll = rng.random()
        if roll < 0.3 and n > 3:
            del target_words[rng.randrange(n)]
        elif roll < 0.5:
            pos = rng.randrange(n)
            target_words.insert(pos, rng.choice(_WORDS[:200]))
        embedding = None
        if embedding_dim:
            embedding = np_rng.normal(size=embedding_dim)
        examples.append(
            Example(id=ex_id, source=source, target=" ".join(target_words), tree=tree,
                    embedding=embedding)
        )
    return Corpus(examples=examples, vocab=vocab, embedding_dim=embedding_dim)


# ---------------------------------------------------------------------------
# mock chat-completions endpoint
# ---------------------------------------------------------------------------

class MockEndpoint:
    """Local HTTP endpoint speaking the chat-completions JSON shape.

    `reply_fn(body) -> str` produces the assistant text; `status_plan` is a
    list of HTTP statuses consumed one per request before replies start
    (e.g. [429, 429] to fail twice). All request bodies are captured.
    """

    def __init__(self, reply_fn=None, status_plan=None, raw_body=None):
        self.reply_fn = reply_fn or (lambda body: "ok")
        self.status_plan = list(status_plan or [])
        self.raw_body = raw_body
        self.requests = []
        self._lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):  # noqa: N802 - http.server API
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length) or b"{}")
                with outer._lock:
                    outer.requests.append(body)
                    status = outer.status_plan.pop(0) if outer.status_plan else 200
                if status != 200:
                    self.send_response(status)
                    self.end_headers()
                    return
                if outer.raw_body is not None:
                    payload = outer.raw_body
                else:
                    reply = outer.reply_fn(body)
                    payload = json.dumps(
                        {"choices": [{"message": {"role": "assistant", "content": reply}}]}
                    ).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # a short poll interval, since shutdown() waits for the next poll
        self.thread = threading.Thread(target=self.server.serve_forever, args=(0.01,), daemon=True)
        self.thread.start()

    @property
    def base_url(self):
        host, port = self.server.server_address
        return f"http://{host}:{port}"

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def mock_endpoint():
    servers = []

    def make(**kwargs):
        server = MockEndpoint(**kwargs)
        servers.append(server)
        return server

    yield make
    for server in servers:
        server.close()


def echo_target_reply(pairs):
    """reply_fn that answers each request with the target of the quoted source."""
    lookup = dict(pairs)

    def reply(body):
        last_user = [m for m in body["messages"] if m["role"] == "user"][-1]["content"]
        start = last_user.rfind("<erroneous sentence>") + len("<erroneous sentence>")
        end = last_user.rfind("</erroneous sentence>")
        source = last_user[start:end].strip()
        return f"<corrected sentence> {lookup[source]} </corrected sentence>"

    return reply
