"""Curation stage: relevance, section labeling, extraction, verification."""
import pytest

from conftest import make_gateway
from scirforge.core import (
    Aspect,
    DatasetRecord,
    PaperRecord,
    ResponseParseError,
    SectionLabel,
)
from scirforge.curation import (
    AspectDraft,
    assess_relevance,
    extract_aspects,
    format_draft,
    label_segments,
    merge_drafts,
    parse_aspect_draft,
    parse_keep_indices,
    parse_relevance,
    parse_segment_label,
    truncate_text,
    verify_aspects,
)
from scirforge.prompts import load_template

DS = DatasetRecord(id="d1", title="Toy Survey", description="A toy record.")
EXTRACT, VERIFY = load_template("extract.txt"), load_template("verify.txt")


def test_truncate_text():
    assert truncate_text("abcdef", 10) == ("abcdef", False)
    assert truncate_text("abcdef", 3) == ("abc", True)
    assert truncate_text("abcdef", 0) == ("abcdef", False)


def test_parse_relevance_positive():
    v = parse_relevance("USED:[Yes]\nEXPLANATION: [Section 3 cites the record.]")
    assert v.used and v.explanation == "Section 3 cites the record."


def test_parse_relevance_multiline_explanation():
    v = parse_relevance("USED: no\nEXPLANATION: first line\nsecond line")
    assert not v.used
    assert v.explanation == "first line\nsecond line"


def test_parse_relevance_errors():
    with pytest.raises(ResponseParseError):
        parse_relevance("EXPLANATION: no verdict at all")
    with pytest.raises(ResponseParseError):
        parse_relevance("USED:[maybe]\nEXPLANATION: x")
    with pytest.raises(ResponseParseError):
        parse_relevance("USED:[Yes]")  # positive verdict needs an explanation


def test_truncate_text_keeps_the_start_for_relevance(tmp_path):
    paper = PaperRecord(
        id="p1", title="t", segments=((SectionLabel.METHOD, "MARKER " + "x" * 500),)
    )
    text, truncated = truncate_text(paper.full_text(), 40)
    assert truncated and len(text) == 40
    gw = make_gateway(
        tmp_path,
        [
            {
                "kind": "chat",
                "stage": "relevance",
                "match": "MARKER x{10}",
                "response": "USED:[Yes]\nEXPLANATION: found it",
            }
        ],
    )
    v = assess_relevance(DS, text, gw, load_template("relevance.txt"))
    assert v.used  # the prompt still contains the first 40 chars


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("abstract&introduction", SectionLabel.ABSTRACT_INTRO),
        ("  Method.  ", SectionLabel.METHOD),
        ('"experiment"', SectionLabel.EXPERIMENT),
        ("3. method", SectionLabel.METHOD),
        ("Related Works", SectionLabel.RELATED_WORK),
        ("conclusions", SectionLabel.CONCLUSION),
        ("none", SectionLabel.NONE),
        ("acknowledgements", SectionLabel.NONE),
    ],
)
def test_parse_segment_label(raw, expected):
    assert parse_segment_label(raw) is expected


def test_label_segments_merges_neighbors(tmp_path):
    gw = make_gateway(
        tmp_path,
        [
            {"kind": "chat", "stage": "segment", "match": "alpha", "response": "method"},
            {"kind": "chat", "stage": "segment", "match": "beta", "response": "method"},
            {"kind": "chat", "stage": "segment", "match": "gamma", "response": "conclusion"},
        ],
    )
    out = label_segments("alpha text\n\nbeta text\n\ngamma text", gw, load_template("segment.txt"))
    assert out == (
        (SectionLabel.METHOD, "alpha text\n\nbeta text"),
        (SectionLabel.CONCLUSION, "gamma text"),
    )


def test_parse_aspect_draft_headers_and_bullets():
    draft = parse_aspect_draft(
        "Background: first sentence.\n"
        "Methods:\n"
        "- step one.\n"
        "* step two.\n"
        "Dataset: None\n"
        "Findings: [we saw things.]\n"
    )
    got = dict(draft.candidates)
    assert got[Aspect.BACKGROUND] == ("first sentence.",)
    assert got[Aspect.METHODS] == ("step one.", "step two.")
    assert got[Aspect.DATASET] == ()
    assert got[Aspect.FINDINGS] == ("we saw things.",)


def test_parse_aspect_draft_continuation_lines():
    draft = parse_aspect_draft("Challenges: the probe\nbroke twice.\n\nFindings: fine.")
    got = dict(draft.candidates)
    assert got[Aspect.CHALLENGES] == ("the probe broke twice.",)
    assert got[Aspect.FINDINGS] == ("fine.",)


def test_parse_aspect_draft_requires_headers():
    with pytest.raises(ResponseParseError) as err:
        parse_aspect_draft("just prose with no structure")
    assert err.value.raw == "just prose with no structure"


def test_merge_drafts_concatenates():
    d1 = AspectDraft.from_mapping("", "", {Aspect.METHODS: ["a"]})
    d2 = AspectDraft.from_mapping("", "", {Aspect.METHODS: ["b"], Aspect.DATASET: ["c"]})
    merged = merge_drafts([d1, d2], "d1", "p1")
    assert merged.dataset_id == "d1" and merged.paper_id == "p1"
    got = dict(merged.candidates)
    assert got[Aspect.METHODS] == ("a", "b")
    assert got[Aspect.DATASET] == ("c",)


def test_format_draft_numbering():
    draft = AspectDraft.from_mapping("d1", "p1", {Aspect.METHODS: ["x", "y"]})
    text = format_draft(draft)
    assert "Methods:\n1. x\n2. y" in text
    assert "Background:\nNone" in text
    assert "Research Objective:" in text


def test_extract_aspects_round_trip(tmp_path):
    gw = make_gateway(
        tmp_path,
        [
            {
                "kind": "chat",
                "stage": "extract",
                "match": "quartz sensors",
                "response": "Methods: We used quartz sensors.\nFindings: None",
            }
        ],
    )
    draft = extract_aspects("We used quartz sensors in the field.", gw, EXTRACT)
    assert dict(draft.candidates)[Aspect.METHODS] == ("We used quartz sensors.",)
    with pytest.raises(ValueError):
        extract_aspects("   ", gw, EXTRACT)


def test_parse_keep_indices():
    kept = parse_keep_indices(
        "Thinking...\nKEEP-INDICES:\n"
        "Background: [1, 3]\n"
        "Methods: 2\n"
        "Dataset: none\n"
        "REASON: [Background 2 repeats 1.]\n"
        "Findings: [9]\n"  # after REASON, must be ignored
    )
    assert kept[Aspect.BACKGROUND] == [1, 3]
    assert kept[Aspect.METHODS] == [2]
    assert kept[Aspect.DATASET] == []
    assert Aspect.FINDINGS not in kept


def test_parse_keep_indices_errors():
    with pytest.raises(ResponseParseError):
        parse_keep_indices("no block here")
    with pytest.raises(ResponseParseError):
        parse_keep_indices("KEEP-INDICES:\nMethods: [one]")


def _verify_gateway(tmp_path, response):
    return make_gateway(
        tmp_path, [{"kind": "chat", "stage": "verify", "match": "", "response": response}]
    )


def test_verify_aspects_keeps_and_orders(tmp_path):
    draft = AspectDraft.from_mapping(
        "d1", "p1", {Aspect.METHODS: ["m1", "m2", "m3"], Aspect.FINDINGS: ["f1"]}
    )
    gw = _verify_gateway(
        tmp_path, "KEEP-INDICES:\nMethods: [3, 1, 3]\nFindings: [1]\nREASON: [ok]"
    )
    warnings = []
    units = verify_aspects(draft, DS, gw, VERIFY, warnings=warnings)
    assert warnings == []
    assert [(u.aspect, u.text) for u in units] == [
        (Aspect.METHODS, "m1"),
        (Aspect.METHODS, "m3"),
        (Aspect.FINDINGS, "f1"),
    ]
    assert all(u.dataset_id == "d1" and u.paper_id == "p1" for u in units)


def test_verify_aspects_keep_zero_falls_back_with_warning(tmp_path):
    draft = AspectDraft.from_mapping("d1", "p1", {Aspect.METHODS: ["m1", "m2"]})
    gw = _verify_gateway(tmp_path, "KEEP-INDICES:\nMethods: []\nREASON: [n/a]")
    warnings = []
    units = verify_aspects(draft, DS, gw, VERIFY, warnings=warnings)
    assert [u.text for u in units] == ["m1"]
    assert len(warnings) == 1 and "Methods" in warnings[0]


def test_verify_aspects_out_of_range_index(tmp_path):
    draft = AspectDraft.from_mapping("d1", "p1", {Aspect.METHODS: ["m1"]})
    gw = _verify_gateway(tmp_path, "KEEP-INDICES:\nMethods: [2]\nREASON: [x]")
    with pytest.raises(ResponseParseError):
        verify_aspects(draft, DS, gw, VERIFY, warnings=[])


def test_verify_aspects_needs_candidates(tmp_path):
    empty = AspectDraft.from_mapping("d1", "p1", {})
    gw = _verify_gateway(tmp_path, "KEEP-INDICES:\nREASON: [x]")
    with pytest.raises(ValueError):
        verify_aspects(empty, DS, gw, VERIFY, warnings=[])
