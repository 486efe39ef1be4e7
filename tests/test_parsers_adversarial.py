"""Table-driven parser fixtures: drifting model output, accepted or rejected.

Each case feeds one parser a response shaped like the drift the backends
actually produce (preamble prose, bracketed fields, renumbering, fenced JSON,
missing markers) and pins down the exact parse or the failure.  The tables
are shared with the acceptance suite, which reruns every case.
"""
import pytest

from scirforge.core import (
    Aspect,
    CognitiveLevel,
    ResponseParseError,
    SectionLabel,
)
from scirforge.curation import (
    parse_aspect_draft,
    parse_keep_indices,
    parse_relevance,
    parse_segment_label,
)
from scirforge.evalqa import parse_cognitive_level
from scirforge.qagen import extract_json_array, parse_type_selection

ERROR = object()


def _apply_relevance(text):
    v = parse_relevance(text)
    return v.used, v.explanation


def _apply_draft(text):
    draft = parse_aspect_draft(text)
    return {a: texts for a, texts in draft.candidates if texts}


def _apply_selection(text):
    return [q.value for q in parse_type_selection(text)]


RELEVANCE_CASES = [
    ("plain", "USED: Yes\nEXPLANATION: matches the survey.", (True, "matches the survey.")),
    ("bracketed", "USED: [Yes]\nEXPLANATION: [cited in methods]", (True, "cited in methods")),
    ("negative_no_reason", "USED: No", (False, "")),
    ("case_and_padding", "  used:   NO  \nexplanation: different region", (False, "different region")),
    (
        "preamble_and_multiline",
        "Sure, here is my verdict.\nUSED: Yes\nEXPLANATION: the paper\nrelies on the tower records.",
        (True, "the paper\nrelies on the tower records."),
    ),
    ("unrecognized_value", "USED: maybe\nEXPLANATION: unsure", ERROR),
    ("missing_used", "EXPLANATION: looks plausible", ERROR),
    ("positive_without_reason", "USED: Yes", ERROR),
    ("positive_with_blank_brackets", "USED: Yes\nEXPLANATION: [ ]", ERROR),
]

SEGMENT_CASES = [
    ("bare", "Method", SectionLabel.METHOD),
    ("trailing_period", "  methods.  ", SectionLabel.METHOD),
    ("quoted", "'Conclusion'", SectionLabel.CONCLUSION),
    ("numbered_paren", "3) Related Work", SectionLabel.RELATED_WORK),
    ("numbered_dot", "1. abstract & introduction", SectionLabel.ABSTRACT_INTRO),
    ("results_alias", "RESULTS", SectionLabel.EXPERIMENT),
    ("tight_numbering", "2.Methodology", SectionLabel.METHOD),
    ("unknown_falls_back", "Discussion", SectionLabel.NONE),
    ("explicit_none", "none", SectionLabel.NONE),
]

DRAFT_CASES = [
    (
        "inline_values_and_none",
        "Background: long ago\nMethods: None\nFindings: warming trend",
        {Aspect.BACKGROUND: ("long ago",), Aspect.FINDINGS: ("warming trend",)},
    ),
    (
        "bullets",
        "Methods:\n- drilled cores\n- measured depth",
        {Aspect.METHODS: ("drilled cores", "measured depth")},
    ),
    ("bracketed_value", "Dataset: [thaw records]", {Aspect.DATASET: ("thaw records",)}),
    (
        "continuation_joins",
        "Background: the region\nwarmed rapidly",
        {Aspect.BACKGROUND: ("the region warmed rapidly",)},
    ),
    (
        "numbered_bullets",
        "Challenges:\n1. site access\n2) funding gaps",
        {Aspect.CHALLENGES: ("site access", "funding gaps")},
    ),
    (
        "plural_header_alias",
        "research objectives: map thaw depth",
        {Aspect.RESEARCH_OBJECTIVE: ("map thaw depth",)},
    ),
    (
        "preamble_ignored",
        "Here is what I found.\n\nFindings: ice declined",
        {Aspect.FINDINGS: ("ice declined",)},
    ),
    ("all_sections_empty", "Background: None\nMethods: none", {}),
    ("no_headers", "I could not find anything relevant.", ERROR),
    ("empty", "", ERROR),
]

KEEP_CASES = [
    (
        "commas_and_none",
        "KEEP-INDICES:\nBackground: 1, 2\nMethods: none\nREASON: fine",
        {Aspect.BACKGROUND: [1, 2], Aspect.METHODS: []},
    ),
    ("lowercase_no_colon", "keep-indices\nFindings: [1]", {Aspect.FINDINGS: [1]}),
    (
        "lines_after_reason_ignored",
        "KEEP-INDICES:\nBackground: 1\nREASON: because\nMethods: 2",
        {Aspect.BACKGROUND: [1]},
    ),
    ("space_separated", "KEEP-INDICES:\nDataset: 1 3 2", {Aspect.DATASET: [1, 3, 2]}),
    ("empty_marker", "KEEP-INDICES:\nChallenges: empty", {Aspect.CHALLENGES: []}),
    ("missing_block", "Background: 1\nREASON: fine", ERROR),
    ("non_integer", "KEEP-INDICES:\nMethods: first", ERROR),
]

EIGHT = [
    "Verification",
    "Concept Completion",
    "Quantification",
    "Definition",
    "Comparison",
    "Causal Antecedent",
    "Goal Orientation",
    "Judgmental",
]

SELECTION_CASES = [
    ("numbered_lines", "\n".join(f"{i}. {n}" for i, n in enumerate(EIGHT, 1)), EIGHT),
    ("comma_separated", ", ".join(EIGHT), EIGHT),
    ("ninth_type_dropped", "\n".join(EIGHT + ["Expectation"]), EIGHT),
    (
        "prose_lines_skipped",
        "I would pick these:\n" + "\n".join(f"- {n}" for n in EIGHT),
        EIGHT,
    ),
    ("duplicates_collapse_short", "\n".join(EIGHT[:4] + EIGHT[:4]), ERROR),
    ("too_few", "Verification, Definition, Comparison", ERROR),
    ("nothing_recognized", "happy to help!", ERROR),
]

JSON_CASES = [
    ("plain", '[{"question": "q", "answer": "a"}]', [{"question": "q", "answer": "a"}]),
    ("prose_wrapped", "Here you go:\n[1, 2, 3]\nHope that helps!", [1, 2, 3]),
    ("fenced", '```json\n["x", "y"]\n```', ["x", "y"]),
    ("bad_bracket_then_valid", "Notes [draft] here [1, 2]", [1, 2]),
    ("nested_first_wins", "[[1], 2] trailing [3]", [[1], 2]),
    ("object_only", '{"question": "q"}', ERROR),
    ("no_array", "no structured data at all", ERROR),
]

LEVEL_CASES = [
    ("labeled", "Level: C4 because it requires reasoning", CognitiveLevel.C4),
    ("bare_lowercase", "c2", CognitiveLevel.C2),
    ("repeated_same_code", "C5, yes C5", CognitiveLevel.C5),
    ("two_codes", "C1 and C2", ERROR),
    ("out_of_range", "C9", ERROR),
    ("no_code", "analysis level", ERROR),
]

TABLES = [
    ("relevance", _apply_relevance, RELEVANCE_CASES),
    ("segment", parse_segment_label, SEGMENT_CASES),
    ("draft", _apply_draft, DRAFT_CASES),
    ("keep", parse_keep_indices, KEEP_CASES),
    ("selection", _apply_selection, SELECTION_CASES),
    ("json", extract_json_array, JSON_CASES),
    ("level", parse_cognitive_level, LEVEL_CASES),
]


def iter_cases():
    for table, apply, cases in TABLES:
        for case, text, expected in cases:
            yield f"{table}-{case}", apply, text, expected


def check_case(apply, text, expected):
    if expected is ERROR:
        with pytest.raises(ResponseParseError):
            apply(text)
    else:
        assert apply(text) == expected


_ALL = list(iter_cases())


@pytest.mark.parametrize(
    "apply,text,expected",
    [c[1:] for c in _ALL],
    ids=[c[0] for c in _ALL],
)
def test_adversarial_case(apply, text, expected):
    check_case(apply, text, expected)


def test_table_is_large_enough():
    assert len(_ALL) >= 30
