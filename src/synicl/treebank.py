"""Dependency treebank ingestion: CoNLL-U parsing and parallel corpus loading.

Trees are read from parser output only; this package never runs a parser.
Node labels are the DEPREL strings (error-aware parsers encode error
information there, e.g. the "S"/"R"/"M" labels), interned into a shared
label vocabulary so that downstream similarity code works on small ints.

CoNLL-U text and the JSON rows of a corpus bundle both reach a `DepTree`
through `_build_tree`, so both pass the same structural checks (one root,
no cycles, contiguous token indices), and both build their `Example`s
through `_make_example`, which checks token counts and embedding widths.
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
    """One token of a dependency tree; children kept in token order."""

    token_index: int
    form: str
    label: int
    children: List["DepNode"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass
class DepTree:
    root: DepNode
    n_tokens: int
    sentence_id: int = -1

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


def _build_tree(rows: Sequence[Sequence], vocab: LabelVocab, sentence_id: int) -> DepTree:
    """Check that (token index, form, head, label) rows form one tree, then link it.

    The rows must be non-empty with indices 1..n (any order, no duplicates),
    exactly one head 0, every other head among the indices and no cycle.
    Labels enter `vocab` in row order.
    """
    if not rows:
        raise MalformedLine(f"sentence {sentence_id}: empty block")
    n = len(rows)
    indices = sorted(row[0] for row in rows)
    if indices != list(range(1, n + 1)):
        if indices[0] < 1:
            raise MalformedLine(f"sentence {sentence_id}: token index {indices[0]} < 1")
        for prev, index in zip(indices, indices[1:]):
            if prev == index:
                raise MalformedLine(f"sentence {sentence_id}: duplicate token index {index}")
        present = set(indices)
        missing = next(i for i in range(1, n + 1) if i not in present)
        raise MissingToken(f"sentence {sentence_id}: token index {missing} missing (have 1..{indices[-1]})")

    nodes: List[DepNode] = [None] * (n + 1)  # type: ignore[list-item]
    heads = [0] * (n + 1)
    label_ids = vocab._index
    for token_index, form, head, label in rows:
        label_id = label_ids.get(label)
        if label_id is None:
            label_id = vocab.add(label)
        nodes[token_index] = DepNode(token_index, form, label_id)
        heads[token_index] = head

    root = None
    for token_index in range(1, n + 1):  # index order keeps every child list sorted
        head = heads[token_index]
        if head == 0:
            if root is not None:
                raise MultipleRoots(f"sentence {sentence_id}: more than one node with head 0")
            root = nodes[token_index]
        elif 0 < head <= n:
            nodes[head].children.append(nodes[token_index])
        else:
            raise MalformedLine(
                f"sentence {sentence_id}: head {head} of token {token_index} out of range"
            )
    if root is None:
        # every node has a parent among the tokens, so the graph contains a cycle
        raise CyclicTree(f"sentence {sentence_id}: no root node (head 0) found")

    reached = 0
    stack = [root]
    while stack:
        node = stack.pop()
        reached += 1
        stack.extend(node.children)
    if reached != n:
        raise CyclicTree(f"sentence {sentence_id}: {n - reached} tokens unreachable from root")

    return DepTree(root=root, n_tokens=n, sentence_id=sentence_id)


def parse_conllu(text: str, vocab: LabelVocab) -> List[DepTree]:
    """Parse blank-line separated dependency blocks into trees.

    Accepts strict 10-column CoNLL-U (ID FORM ... HEAD DEPREL ...) or a
    minimal 4-column ID/FORM/HEAD/DEPREL layout. Comment lines start with
    '#'; multiword ("1-2") and empty-node ("1.1") ids are skipped. `vocab`
    is extended in place with unseen labels.
    """
    trees = []
    current: List[str] = []
    sentence_id = 0
    for raw in text.split("\n"):
        line = raw.rstrip("\r")
        if line.strip() == "":
            if current:
                trees.append(_build_tree(_block_rows(current, sentence_id), vocab, sentence_id))
                sentence_id += 1
                current = []
            continue
        if line.lstrip().startswith("#"):
            continue
        current.append(line)
    if current:
        trees.append(_build_tree(_block_rows(current, sentence_id), vocab, sentence_id))
    return trees


def _tree_rows(tree: DepTree, vocab: LabelVocab) -> List[List[object]]:
    """[token index, form, head, label string] rows of `tree`, in token order."""
    rows = []
    stack = [(tree.root, 0)]
    while stack:
        node, head = stack.pop()
        rows.append([node.token_index, node.form, head, vocab.labels[node.label]])
        for child in node.children:
            stack.append((child, node.token_index))
    rows.sort(key=lambda r: r[0])
    return rows


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
# straight to `_build_tree` and pass the same structural checks as CoNLL-U,
# and each example id must equal its line position, because selection and
# prompt assembly index examples by position.
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
            tree = _build_tree(rows, vocab, position)
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
