import json
import os

import pytest

from synicl.prompt import (
    CHAT_SYSTEM,
    COMPLETION_INSTRUCTION,
    TagCollision,
    build_chat_prompt,
    build_completion_prompt,
    extract_correction_flagged,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")

FOUR_SHOT_EXAMPLES = [
    ("She go to school every days .", "She goes to school every day ."),
    ("I am agree with you .", "I agree with you ."),
    ("He did not went there .", "He did not go there ."),
    ("They discussed about the plan .", "They discussed the plan ."),
]
TEST_SOURCE = "No smoking in the public places ."

# (raw model output, expected correction) pairs pinning the extraction rules;
# SRC marks "return the test source unchanged"
SRC = object()
EXTRACTION_FIXTURES = [
    ("<corrected sentence> Fixed text. </corrected sentence>", "Fixed text."),
    ("<corrected sentence>Tight tags.</corrected sentence>", "Tight tags."),
    ("<corrected sentence>   spaced   </corrected sentence>", "spaced"),
    ("Sure! <corrected sentence> Leading chatter handled . </corrected sentence>", "Leading chatter handled ."),
    ("<corrected sentence> Result . </corrected sentence>\nBy the way, more chatter.", "Result ."),
    ("<corrected sentence> First . </corrected sentence> <corrected sentence> Second . </corrected sentence>", "First ."),
    ("<corrected sentence> Unclosed tag output .", "Unclosed tag output ."),
    ("<corrected sentence> Unclosed, then blank line .\n\nTrailing explanation.", "Unclosed, then blank line ."),
    ("<corrected sentence> Unclosed\nsecond line kept\n\nnot this", "Unclosed\nsecond line kept"),
    ("<corrected sentence> No errors found </corrected sentence>", "No errors found"),
    ("No errors found", SRC),
    ("No errors found.", SRC),
    ("no errors found", SRC),
    ("NO ERRORS FOUND!", SRC),
    ("I checked carefully and there are No errors found in this sentence.", SRC),
    ("Fixed text.\nExtra chatter.", "Fixed text."),
    ("\n\nFixed after blanks.\nMore.", "Fixed after blanks."),
    ("  padded single line  ", "padded single line"),
    ("", SRC),
    ("   \n  \n", SRC),
]


def test_twenty_extraction_fixtures():
    assert len(EXTRACTION_FIXTURES) == 20
    for raw, expected in EXTRACTION_FIXTURES:
        want = TEST_SOURCE if expected is SRC else expected
        assert extract_correction_flagged(raw, TEST_SOURCE)[0] == want, raw


def test_extraction_flags():
    assert extract_correction_flagged("<corrected sentence> x </corrected sentence>", "s")[1] is None
    assert extract_correction_flagged("<corrected sentence> x", "s")[1] == "unclosed_tag"
    assert extract_correction_flagged("No errors found", "s")[1] == "no_errors_found"
    assert extract_correction_flagged("plain line", "s")[1] == "untagged_first_line"
    assert extract_correction_flagged("", "s") == ("s", "empty_output")


def test_completion_golden():
    rendered = build_completion_prompt(FOUR_SHOT_EXAMPLES, TEST_SOURCE)
    with open(os.path.join(GOLDEN_DIR, "completion_4shot.txt"), encoding="utf-8") as f:
        golden = f.read()
    assert rendered == golden


def test_chat_golden():
    rendered = build_chat_prompt(FOUR_SHOT_EXAMPLES, TEST_SOURCE)
    as_json = json.dumps(rendered, ensure_ascii=False, indent=2)
    with open(os.path.join(GOLDEN_DIR, "chat_4shot.json"), encoding="utf-8") as f:
        golden = f.read()
    assert as_json == golden


def test_completion_structure_counts():
    for k in (0, 1, 4, 8):
        examples = [(f"bad {i}", f"good {i}") for i in range(k)]
        rendered = build_completion_prompt(examples, "test sentence")
        lines = rendered.split("\n")
        assert len(lines) == 1 + 2 * k + 2
        assert lines[0] == COMPLETION_INSTRUCTION
        assert lines[-2] == "<erroneous sentence> test sentence </erroneous sentence>"
        assert lines[-1] == "<corrected sentence>"
        assert not rendered.endswith("\n")


def test_zero_shot_completion():
    rendered = build_completion_prompt([], "only test")
    assert rendered == (
        COMPLETION_INSTRUCTION
        + "\n<erroneous sentence> only test </erroneous sentence>"
        + "\n<corrected sentence>"
    )


def test_chat_structure_counts_and_alternation():
    for k in range(0, 7):
        examples = [(f"bad {i}", f"good {i}") for i in range(k)]
        messages = build_chat_prompt(examples, "test sentence")
        assert [m["role"] for m in messages] == ["system"] + ["user", "assistant"] * k + ["user"]
        assert all(set(m) == {"role", "content"} for m in messages)
        assert messages[0]["content"] == CHAT_SYSTEM
        assert messages[-1]["content"] == "<erroneous sentence> test sentence </erroneous sentence>"
        for i, (source, target) in enumerate(examples):
            assert messages[1 + 2 * i]["content"] == f"<erroneous sentence> {source} </erroneous sentence>"
            assert messages[2 + 2 * i]["content"] == f"<corrected sentence> {target} </corrected sentence>"


def test_tag_collision_rejected():
    with pytest.raises(TagCollision):
        build_completion_prompt([("has <corrected sentence> inside", "t")], "x")
    with pytest.raises(TagCollision):
        build_completion_prompt([], "test with </erroneous sentence> tag")
    with pytest.raises(TagCollision):
        build_chat_prompt([("ok", "bad </corrected sentence>")], "x")


def test_extraction_roundtrip_over_targets():
    targets = [t for _, t in FOUR_SHOT_EXAMPLES] + [
        "Plain sentence .",
        "Another , with commas ; and more .",
        "Numbers 1 2 3 .",
    ]
    for target in targets:
        echoed = f"<corrected sentence> {target} </corrected sentence>"
        assert extract_correction_flagged(echoed, "unused source") == (target, None)
