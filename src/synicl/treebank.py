"""Dependency treebank ingestion: CoNLL-U parsing, corpus loading and the forest.

Trees are read from parser output only; this package never runs a parser.
Node labels are the DEPREL strings (error-aware parsers encode error
information there, e.g. the "S"/"R"/"M" labels), interned into a shared
label vocabulary so that downstream similarity code works on small ints.

Every tree of a corpus lives in one `Forest`: a few flat lists of ints and
one list of forms, with no Python object per token, so a loaded pool of
hundreds of thousands of tokens gives the cyclic garbage collector a few
objects per sentence to walk, not two per token. Per node the forest keeps
the label, the head, the form, the child count and where its child groups
start; per child group (the children of one label, the groups of a node in
label order) the label, the number of leaves and the ids of the internal
children, which is the shape the tree kernel merge-joins over. A `DepTree`
is a view (forest, tree index, n_tokens, sentence_id). `DepTree.root`
rebuilds `DepNode` objects only when asked, and `DepTree(root=DepNode…)`
turns a hand-built graph into a one-tree forest.

CoNLL-U text, the JSON rows of a corpus bundle and DepNode graphs all enter
a forest through `_append_tree`, so all pass the same structural checks
(one root, no cycles, contiguous token indices). CoNLL-U and bundles build
their `Example`s through `_make_example`, which checks token counts and
embedding widths.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

ERROR_LABELS = ("S", "R", "M")


class TreebankError(ValueError):
    """Base class for treebank ingestion failures."""


class MalformedLine(TreebankError):
    pass


class CyclicTree(TreebankError):
    pass


class MultipleRoots(TreebankError):
    pass


class MissingToken(TreebankError):
    pass


class LengthMismatch(TreebankError):
    pass


class DimensionMismatch(TreebankError):
    pass


class LabelVocab:
    """Ordered set of dependency label strings with stable integer ids."""

    def __init__(self, labels: Sequence[str] = ()):
        self.labels: List[str] = []
        self._index: dict[str, int] = {}
        for label in labels:
            self.add(label)

    def add(self, label: str) -> int:
        """Return the id of `label`, adding it to the vocab if unseen."""
        idx = self._index.get(label)
        if idx is None:
            idx = len(self.labels)
            self.labels.append(label)
            self._index[label] = idx
        return idx

    def index(self, label: str) -> int:
        return self._index[label]

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def d(self) -> int:
        """Number of distinct labels."""
        return len(self.labels)

    def error_label_ids(self) -> List[int]:
        """Ids of the error labels (S/R/M) present in this vocab."""
        return [self._index[lb] for lb in ERROR_LABELS if lb in self._index]

    def __repr__(self) -> str:
        return f"LabelVocab({len(self.labels)} labels)"


@dataclass
class DepNode:
    """One token of a dependency tree; children kept in token order.

    Trees are stored in a `Forest`; DepNodes are built only when a
    `DepTree.root` is asked for, or by hand to make a `DepTree`.
    """

    token_index: int
    form: str
    label: int
    children: List["DepNode"] = field(default_factory=list)


class Forest:
    """Every tree of a corpus in flat lists, with no object per token.

    Node ids are positions in the per-node lists; the nodes of tree t are
    `tree_start[t]` to `tree_start[t + 1] - 1`, in token order, and its root
    is `roots[t]`. Per node: `labels`, `heads` (the head's token index, 0 at
    the root), `forms`, `n_children`, and the groups
    `group_start[v]` to `group_start[v + 1] - 1` of its children. A group
    holds the children of one label, the groups of a node in label order:
    `group_label`, `group_leaves` (how many of them are leaves) and the node
    ids of the others, `kids[kid_start[g]:kid_start[g + 1]]`.
    """

    __slots__ = ("labels", "heads", "forms", "n_children", "group_start", "group_label",
                 "group_leaves", "kid_start", "kids", "tree_start", "roots")

    def __init__(self) -> None:
        self.labels: List[int] = []
        self.heads: List[int] = []
        self.forms: List[str] = []
        self.n_children: List[int] = []
        self.group_start: List[int] = [0]
        self.group_label: List[int] = []
        self.group_leaves: List[int] = []
        self.kid_start: List[int] = [0]
        self.kids: List[int] = []
        self.tree_start: List[int] = [0]
        self.roots: List[int] = []


class DepTree:
    """A view of one tree of a `Forest`: (forest, tree index, n_tokens, sentence_id).

    `DepTree(root=DepNode, n_tokens, sentence_id)` checks a hand-built graph
    like any parsed tree and stores it as a one-tree forest.
    """

    __slots__ = ("forest", "index", "n_tokens", "sentence_id")

    def __init__(self, root: DepNode, n_tokens: int, sentence_id: int = -1):
        tree = _append_tree(Forest(), _graph_rows(root, sentence_id), None, sentence_id)
        if tree.n_tokens != n_tokens:
            raise LengthMismatch(
                f"sentence {sentence_id}: graph has {tree.n_tokens} nodes, not {n_tokens}")
        self.forest, self.index = tree.forest, 0
        self.n_tokens, self.sentence_id = n_tokens, sentence_id

    def __repr__(self) -> str:
        return f"DepTree({self.n_tokens} tokens, sentence {self.sentence_id})"

    def _column(self, values: list) -> list:
        base = self.forest.tree_start[self.index]
        return values[base: base + self.n_tokens]

    @property
    def labels(self) -> List[int]:
        """Label ids, in token order."""
        return self._column(self.forest.labels)

    @property
    def heads(self) -> List[int]:
        """Head token indices (0 at the root), in token order."""
        return self._column(self.forest.heads)

    @property
    def forms(self) -> List[str]:
        return self._column(self.forest.forms)

    @property
    def root(self) -> DepNode:
        """The tree as freshly built DepNodes, children in token order."""
        nodes = [DepNode(i, form, label)
                 for i, form, label in zip(range(1, self.n_tokens + 1), self.forms, self.labels)]
        root = nodes[0]
        for node, head in zip(nodes, self.heads):
            if head:
                nodes[head - 1].children.append(node)
            else:
                root = node
        return root

    def iter_nodes(self) -> Iterator[DepNode]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


@dataclass
class Example:
    """A parallel (erroneous, corrected) sentence pair with its source tree."""

    id: int
    source: str
    target: str
    source_tokens: List[str]
    tree: DepTree
    embedding: Optional[np.ndarray] = None


@dataclass
class Corpus:
    examples: List[Example]
    vocab: LabelVocab
    embedding_dim: Optional[int] = None

    def __len__(self) -> int:
        return len(self.examples)

    def __getitem__(self, idx: int) -> Example:
        return self.examples[idx]


def _split_columns(line: str) -> List[str]:
    # CoNLL-U is tab separated; fall back to whitespace for hand-written
    # fixtures that use spaces.
    if "\t" in line:
        return line.split("\t")
    return line.split()


def _block_rows(lines: List[str], sentence_id: int) -> List[Tuple[int, str, int, str]]:
    """Split the token lines of one block into (token index, form, head, label) rows."""
    rows = []
    for line in lines:
        cols = _split_columns(line)
        if len(cols) == 4:
            id_col, form, head_col, deprel = cols
        elif len(cols) >= 10:
            id_col, form, head_col, deprel = cols[0], cols[1], cols[6], cols[7]
        else:
            raise MalformedLine(
                f"sentence {sentence_id}: expected 4 or 10 columns, got {len(cols)}: {line!r}"
            )
        if "-" in id_col or "." in id_col:
            # multiword token / empty node lines carry no tree structure
            continue
        try:
            rows.append((int(id_col), form, int(head_col), deprel))
        except ValueError as exc:
            raise MalformedLine(f"sentence {sentence_id}: non-integer ID/HEAD: {line!r}") from exc
    return rows


def _index_error(indices: List[int], sentence_id: int) -> TreebankError:
    """The error for sorted token indices that are not 1..n."""
    if indices[0] < 1:
        return MalformedLine(f"sentence {sentence_id}: token index {indices[0]} < 1")
    for prev, index in zip(indices, indices[1:]):
        if prev == index:
            return MalformedLine(f"sentence {sentence_id}: duplicate token index {index}")
    present = set(indices)
    missing = next(i for i in range(1, len(indices) + 1) if i not in present)
    return MissingToken(
        f"sentence {sentence_id}: token index {missing} missing (have 1..{indices[-1]})")


def _append_tree(
    forest: Forest, rows: Sequence[Sequence], vocab: Optional[LabelVocab], sentence_id: int
) -> DepTree:
    """Check that (token index, form, head, label) rows form one tree, then add it to `forest`.

    The rows must be non-empty with indices 1..n (any order, no duplicates),
    exactly one head 0, every other head among the indices and no cycle.
    Labels are strings interned into `vocab` in row order, or label ids
    already when `vocab` is None. Returns the view of the new tree.
    """
    if not rows:
        raise MalformedLine(f"sentence {sentence_id}: empty block")
    n = len(rows)
    expected = list(range(1, n + 1))
    if [row[0] for row in rows] == expected:
        ordered = rows
    else:
        ordered = sorted(rows, key=lambda row: row[0])
        indices = [row[0] for row in ordered]
        if indices != expected:
            raise _index_error(indices, sentence_id)

    if vocab is None:
        labels = [row[3] for row in ordered]
    else:
        label_ids = vocab._index
        try:
            labels = [label_ids[row[3]] for row in ordered]
        except KeyError:
            for row in rows:
                vocab.add(row[3])
            labels = [label_ids[row[3]] for row in ordered]
    heads = [row[2] for row in ordered]

    children: List[List[int]] = [[] for _ in range(n)]
    root = -1
    for i, head in enumerate(heads):
        if head == 0:
            if root >= 0:
                raise MultipleRoots(f"sentence {sentence_id}: more than one node with head 0")
            root = i
        elif 0 < head <= n:
            children[head - 1].append(i)
        else:
            raise MalformedLine(
                f"sentence {sentence_id}: head {head} of token {i + 1} out of range")
    if root < 0:
        # every node has a parent among the tokens, so the graph contains a cycle
        raise CyclicTree(f"sentence {sentence_id}: no root node (head 0) found")
    reached = 0
    stack = [root]
    while stack:
        reached += 1
        stack.extend(children[stack.pop()])
    if reached != n:
        raise CyclicTree(f"sentence {sentence_id}: {n - reached} tokens unreachable from root")

    # each node's children grouped by label (stable sort: token order within a
    # label), leaves counted and internal children listed by node id
    f = forest
    base = len(f.labels)
    group_label, group_leaves, kids = f.group_label, f.group_leaves, f.kids
    group_start, kid_start = f.group_start, f.kid_start
    for node_children in children:
        if not node_children:
            group_start.append(group_start[-1])
            continue
        if len(node_children) > 1:
            node_children.sort(key=labels.__getitem__)
        prev = None
        for child in node_children:
            label = labels[child]
            if label != prev:
                if prev is not None:
                    kid_start.append(len(kids))
                group_label.append(label)
                group_leaves.append(0)
                prev = label
            if children[child]:
                kids.append(base + child)
            else:
                group_leaves[-1] += 1
        kid_start.append(len(kids))
        group_start.append(len(group_label))
    f.n_children += map(len, children)
    f.labels += labels
    f.heads += heads
    f.forms += [row[1] for row in ordered]
    f.tree_start.append(base + n)
    f.roots.append(base + root)
    tree = object.__new__(DepTree)
    tree.forest, tree.index, tree.n_tokens, tree.sentence_id = f, len(f.roots) - 1, n, sentence_id
    return tree


def _graph_rows(root: DepNode, sentence_id: int) -> List[Tuple[int, str, int, int]]:
    """(token index, form, head, label id) rows of the DepNode graph under `root`."""
    rows = [(root.token_index, root.form, 0, root.label)]
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for child in node.children:
            if id(child) in seen:
                raise CyclicTree(f"sentence {sentence_id}: node {child.token_index} reached twice")
            seen.add(id(child))
            rows.append((child.token_index, child.form, node.token_index, child.label))
            stack.append(child)
    return rows


def parse_conllu(text: str, vocab: LabelVocab) -> List[DepTree]:
    """Parse blank-line separated dependency blocks into trees.

    Accepts strict 10-column CoNLL-U (ID FORM ... HEAD DEPREL ...) or a
    minimal 4-column ID/FORM/HEAD/DEPREL layout. Comment lines start with
    '#'; multiword ("1-2") and empty-node ("1.1") ids are skipped. `vocab`
    is extended in place with unseen labels. The trees share one new forest.
    """
    forest = Forest()
    trees = []
    current: List[str] = []
    sentence_id = 0
    for raw in text.split("\n"):
        line = raw.rstrip("\r")
        if line.strip() == "":
            if current:
                rows = _block_rows(current, sentence_id)
                trees.append(_append_tree(forest, rows, vocab, sentence_id))
                sentence_id += 1
                current = []
            continue
        if line.lstrip().startswith("#"):
            continue
        current.append(line)
    if current:
        trees.append(_append_tree(forest, _block_rows(current, sentence_id), vocab, sentence_id))
    return trees


def _tree_rows(tree: DepTree, vocab: LabelVocab) -> List[List[object]]:
    """[token index, form, head, label string] rows of `tree`, in token order."""
    names = vocab.labels
    return [[index, form, head, names[label]] for index, form, head, label
            in zip(range(1, tree.n_tokens + 1), tree.forms, tree.heads, tree.labels)]


def tree_to_conllu(tree: DepTree, vocab: LabelVocab) -> str:
    """Serialize a tree to the minimal 4-column TSV form (one block, no trailing blank)."""
    return "\n".join("\t".join(map(str, row)) for row in _tree_rows(tree, vocab))


def _read_lines(path: str) -> List[str]:
    with open(path, encoding="utf-8") as f:
        return [line.rstrip("\n").rstrip("\r") for line in f]


def _parse_embeddings(path: str) -> List[np.ndarray]:
    vectors = [np.asarray([float(v) for v in line.split()], dtype=np.float64)
               for line in _read_lines(path)]
    if not vectors or vectors[0].shape[0] == 0:
        raise DimensionMismatch(f"{path}: no embedding values found")
    return vectors


def _make_example(
    position: int,
    source: str,
    target: str,
    tree: DepTree,
    embedding: Optional[np.ndarray],
    dim: Optional[int],
    where: str,
) -> Example:
    """The one place an Example is built from loaded parts; `where` names it in errors."""
    tokens = source.split()
    if tree.n_tokens != len(tokens):
        raise LengthMismatch(
            f"{where}: tree has {tree.n_tokens} tokens but the source has {len(tokens)}"
        )
    if embedding is not None and embedding.shape[0] != dim:
        raise DimensionMismatch(f"{where}: embedding has length {embedding.shape[0]}, expected {dim}")
    return Example(id=position, source=source, target=target, source_tokens=tokens, tree=tree,
                   embedding=embedding)


def load_corpus(
    source_path: str,
    target_path: str,
    trees_path: str,
    embeddings_path: Optional[str] = None,
    vocab: Optional[LabelVocab] = None,
) -> Corpus:
    """Load a line-aligned parallel corpus plus one tree block per source line."""
    vocab = vocab if vocab is not None else LabelVocab()
    sources = _read_lines(source_path)
    targets = _read_lines(target_path)
    if len(sources) != len(targets):
        raise LengthMismatch(
            f"{source_path} has {len(sources)} lines but {target_path} has {len(targets)}"
        )
    for i, line in enumerate(sources):
        if line.strip() == "":
            raise LengthMismatch(f"{source_path}: line {i + 1} is empty")

    with open(trees_path, encoding="utf-8") as f:
        trees = parse_conllu(f.read(), vocab)
    if len(trees) != len(sources):
        raise LengthMismatch(
            f"{trees_path} has {len(trees)} tree blocks but {source_path} has {len(sources)} lines"
        )

    embeddings: List[Optional[np.ndarray]] = [None] * len(sources)
    dim: Optional[int] = None
    if embeddings_path is not None:
        embeddings = _parse_embeddings(embeddings_path)
        dim = embeddings[0].shape[0]
        if len(embeddings) != len(sources):
            raise LengthMismatch(
                f"{embeddings_path} has {len(embeddings)} vectors but "
                f"{source_path} has {len(sources)} lines"
            )

    examples = [
        _make_example(i, source, target, tree, embedding, dim, f"{source_path} line {i + 1}")
        for i, (source, target, tree, embedding) in enumerate(
            zip(sources, targets, trees, embeddings))
    ]
    return Corpus(examples=examples, vocab=vocab, embedding_dim=dim)


# ---------------------------------------------------------------------------
# Corpus bundles: a validated on-disk form produced by `synicl ingest`.
# Labels are stored as strings so that bundles ingested separately can be
# loaded later under one shared vocabulary. On load, the stored tree rows go
# straight into the corpus's forest through `_append_tree` and pass the same
# structural checks as CoNLL-U, and each example id must equal its line
# position, because selection and prompt assembly index examples by position.
# ---------------------------------------------------------------------------

BUNDLE_EXAMPLES = "examples.jsonl"


def save_bundle(corpus: Corpus, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, BUNDLE_EXAMPLES), "w", encoding="utf-8") as f:
        for ex in corpus.examples:
            record = {
                "id": ex.id,
                "source": ex.source,
                "target": ex.target,
                "tree": _tree_rows(ex.tree, corpus.vocab),
            }
            if ex.embedding is not None:
                record["embedding"] = [float(v) for v in ex.embedding]
            f.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")


def _bundle_embedding(values: object, where: str) -> np.ndarray:
    """A stored embedding: a non-empty flat list of finite int/float values (no bools)."""
    try:
        if type(values) is list and values and {int, float}.issuperset(map(type, values)):
            embedding = np.asarray(values, dtype=np.float64)
            if np.isfinite(embedding).all():
                return embedding
    except OverflowError:  # an int beyond the float range
        pass
    raise MalformedLine(f"{where}: embedding must be a non-empty list of finite numbers")


def load_bundle(bundle_dir: str, vocab: Optional[LabelVocab] = None) -> Corpus:
    """Load a bundle written by save_bundle, extending `vocab` (shared across bundles).

    Every tree passes the same structural checks as parsed CoNLL-U, and the
    example ids must equal their line positions (0, 1, ...).
    """
    vocab = vocab if vocab is not None else LabelVocab()
    forest = Forest()
    examples = []
    dim: Optional[int] = None
    path = os.path.join(bundle_dir, BUNDLE_EXAMPLES)
    with open(path, encoding="utf-8") as f:
        for position, line in enumerate(f):
            where = f"{path} line {position + 1}"
            try:
                record = json.loads(line)
                ex_id, source, target = record["id"], record["source"], record["target"]
                rows = record["tree"]
            except (ValueError, KeyError, TypeError) as exc:
                raise MalformedLine(f"{where}: not an example record ({exc})") from exc
            if type(ex_id) is not int or ex_id != position:
                raise MalformedLine(f"{where}: example id {ex_id!r} != its position {position}")
            if type(source) is not str or type(target) is not str:
                raise MalformedLine(f"{where}: source and target must be strings")
            if type(rows) is not list or not all(
                type(row) is list and len(row) == 4 and type(row[0]) is int
                and type(row[1]) is str and type(row[2]) is int and type(row[3]) is str
                for row in rows
            ):
                raise MalformedLine(
                    f"{where}: tree rows must be [int index, str form, int head, str label]"
                )
            tree = _append_tree(forest, rows, vocab, position)
            embedding = None
            if "embedding" in record:
                embedding = _bundle_embedding(record["embedding"], where)
                if dim is None:
                    dim = embedding.shape[0]
            examples.append(_make_example(position, source, target, tree, embedding, dim, where))
    return Corpus(examples=examples, vocab=vocab, embedding_dim=dim)


def content_hash(paths: Sequence[str]) -> str:
    """SHA-256 over the concatenated bytes of `paths` (manifest/corpus identity)."""
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            while True:
                chunk = f.read(1 << 20)
                if not chunk:
                    break
                h.update(chunk)
    return h.hexdigest()
