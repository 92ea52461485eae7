"""Few-shot prompt rendering and model-output extraction.

A prompt is a list of chat messages, each a `{"role", "content"}` dict in
the form the endpoint receives. Two render styles: a chat sequence (system
instruction, then one user/assistant pair per example, then the test
source as a user turn) and a flat completion text (instruction paragraph
followed by tagged example lines), which travels as the content of a
single user message. Both wrap sentences in
'<erroneous sentence>'/'<corrected sentence>' tags; extraction reverses the
convention with deterministic fallbacks for untagged model output.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .treebank import InputError

OPEN_ERR = "<erroneous sentence>"
CLOSE_ERR = "</erroneous sentence>"
OPEN_COR = "<corrected sentence>"
CLOSE_COR = "</corrected sentence>"
_ALL_TAGS = (OPEN_ERR, CLOSE_ERR, OPEN_COR, CLOSE_COR)

NO_ERRORS = "No errors found"

COMPLETION_INSTRUCTION = (
    "There is an erroneous sentence between '<erroneous sentence>' and "
    "'</erroneous sentence>'. Then grammatical errors in the erroneous "
    "sentence will be corrected. The corrected version will be between "
    "'<corrected sentence>' and '</corrected sentence>'."
)

CHAT_SYSTEM = (
    "You are a grammar correction assistant. The user will give you a "
    "sentence with grammatical errors (between '<erroneous sentence>' and "
    "'</erroneous sentence>'). You need to correct the sentence (between "
    "'<corrected sentence>' and '</corrected sentence>'). Requirements: "
    "1. Make as few changes as possible. 2. Make sure the sentence has the "
    "same meaning as the original sentence. 3. If there is no error, just "
    "output 'No errors found'."
)


class TagCollision(InputError):
    pass


def _check_tags(sentence: str) -> str:
    for tag in _ALL_TAGS:
        if tag in sentence:
            raise TagCollision(f"sentence contains the literal tag {tag!r}: {sentence!r}")
    return sentence


def build_completion_prompt(examples: Sequence[Tuple[str, str]], test_source: str) -> str:
    """Flat prompt: instruction, tagged example pairs, test source, open tag.

    Lines are joined with single LF; there is no newline after the final
    '<corrected sentence>' token (the model continues right after it).
    """
    lines = [COMPLETION_INSTRUCTION]
    for source, target in examples:
        lines.append(f"{OPEN_ERR} {_check_tags(source)} {CLOSE_ERR}")
        lines.append(f"{OPEN_COR} {_check_tags(target)} {CLOSE_COR}")
    lines.append(f"{OPEN_ERR} {_check_tags(test_source)} {CLOSE_ERR}")
    lines.append(OPEN_COR)
    return "\n".join(lines)


def build_chat_prompt(
    examples: Sequence[Tuple[str, str]], test_source: str
) -> List[Dict[str, str]]:
    """Chat prompt: system message, one user/assistant pair per example,
    final user message carrying the test source."""
    messages = [{"role": "system", "content": CHAT_SYSTEM}]
    for source, target in examples:
        messages.append({"role": "user", "content": f"{OPEN_ERR} {_check_tags(source)} {CLOSE_ERR}"})
        messages.append({"role": "assistant",
                         "content": f"{OPEN_COR} {_check_tags(target)} {CLOSE_COR}"})
    messages.append({"role": "user", "content": f"{OPEN_ERR} {_check_tags(test_source)} {CLOSE_ERR}"})
    return messages


def extract_correction_flagged(raw_output: str, test_source: str) -> Tuple[str, Optional[str]]:
    """Pull the corrected sentence out of raw model output, with a flag
    naming the fallback rule that fired.

    Precedence: tagged text, then the 'No errors found' convention (returns
    the test source unchanged), then the first non-empty line. Empty output
    falls back to the test source. Flags: None (clean tagged output),
    "unclosed_tag", "no_errors_found", "untagged_first_line", "empty_output".
    """
    if raw_output is None or raw_output.strip() == "":
        return test_source, "empty_output"

    start = raw_output.find(OPEN_COR)
    if start != -1:
        body_start = start + len(OPEN_COR)
        end = raw_output.find(CLOSE_COR, body_start)
        if end != -1:
            return raw_output[body_start:end].strip(), None
        # unclosed tag: take text up to the first blank line (or everything)
        body = raw_output[body_start:]
        cut = body.find("\n\n")
        if cut != -1:
            body = body[:cut]
        return body.strip(), "unclosed_tag"

    if NO_ERRORS.lower() in raw_output.lower():
        return test_source, "no_errors_found"

    for line in raw_output.split("\n"):
        if line.strip():
            return line.strip(), "untagged_first_line"
    return test_source, "empty_output"
