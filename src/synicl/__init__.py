"""synicl: syntax-based in-context example selection for grammatical error correction."""

__version__ = "0.1.0"

from .treebank import (  # noqa: F401
    Corpus,
    DepNode,
    DepTree,
    Example,
    LabelVocab,
    load_corpus,
    parse_conllu,
)
from .treekernel import tree_kernel_similarity  # noqa: F401
from .treepoly import (  # noqa: F401
    Polynomial,
    WeightProfile,
    poly_distance,
    tree_to_polynomial,
)
from .lexical import build_bm25, bm25_topk, build_dense, dense_topk, tokenize  # noqa: F401
from .pipeline import SelectionConfig, SelectionResult, Selector  # noqa: F401
from .prompt import build_chat_prompt, build_completion_prompt, extract_correction_flagged  # noqa: F401
from .gecscore import extract_edits, f_beta, parse_m2, score_corpus  # noqa: F401
