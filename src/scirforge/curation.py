"""Corpus curation: dataset-paper relevance, section labeling, and two-stage
aspect extraction (extract candidates per section, then verify against the
dataset's metadata).

All parsers here are marker-line based and deliberately tolerant of the
formatting drift real model responses exhibit; anything structurally
unusable raises ResponseParseError with the raw response attached.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .core import (
    ASPECT_ORDER,
    Aspect,
    AspectUnit,
    DatasetRecord,
    PaperRecord,
    ResponseParseError,
    SectionLabel,
)
from .gateway import Gateway
from .prompts import ask


@dataclass(frozen=True)
class RelevanceVerdict:
    used: bool
    explanation: str

    def __post_init__(self):
        if self.used and not self.explanation.strip():
            raise ValueError("a positive relevance verdict needs an explanation")


@dataclass(frozen=True)
class AspectDraft:
    """Candidate sentences per aspect, in extraction order."""

    dataset_id: str
    paper_id: str
    candidates: tuple[tuple[Aspect, tuple[str, ...]], ...]

    def __post_init__(self):
        keys = tuple(a for a, _ in self.candidates)
        if keys != ASPECT_ORDER:
            raise ValueError(f"draft must cover exactly the six aspects, got {keys}")
        for _, texts in self.candidates:
            for t in texts:
                if not t:
                    raise ValueError("draft candidate text must be nonempty")

    @classmethod
    def from_mapping(
        cls, dataset_id: str, paper_id: str, mapping: dict[Aspect, list[str]]
    ) -> "AspectDraft":
        return cls(
            dataset_id,
            paper_id,
            tuple((a, tuple(mapping.get(a, ()))) for a in ASPECT_ORDER),
        )

    def has_candidates(self) -> bool:
        return any(texts for _, texts in self.candidates)


def truncate_text(text: str, max_chars: int) -> tuple[str, bool]:
    """Clamp to max_chars; returns (text, whether anything was cut)."""
    if max_chars <= 0 or len(text) <= max_chars:
        return text, False
    return text[:max_chars], True


def _strip_brackets(value: str) -> str:
    value = value.strip()
    if value.startswith("[") and value.endswith("]"):
        value = value[1:-1].strip()
    return value


# ---------------------------------------------------------------------------
# Relevance
# ---------------------------------------------------------------------------


def assess_relevance(
    dataset: DatasetRecord,
    paper: PaperRecord,
    gateway: Gateway,
    max_paper_chars: int,
    template: str,
) -> RelevanceVerdict:
    """Ask whether the paper plausibly used this dataset; parse USED/EXPLANATION."""
    text, _ = truncate_text(paper.full_text(), max_paper_chars)
    response = ask(
        gateway,
        "relevance",
        template,
        dataset_title=dataset.title,
        dataset_description=dataset.description,
        section_text=text,
    )
    return parse_relevance(response)


def parse_relevance(response: str) -> RelevanceVerdict:
    used: bool | None = None
    explanation = ""
    lines = response.splitlines()
    for i, line in enumerate(lines):
        stripped = line.strip()
        lower = stripped.lower()
        if lower.startswith("used:") and used is None:
            value = _strip_brackets(stripped[len("used:") :]).lower()
            if value == "yes":
                used = True
            elif value == "no":
                used = False
            else:
                raise ResponseParseError(
                    f"unrecognized USED value {value!r}", raw=response
                )
        elif lower.startswith("explanation:"):
            rest = [stripped[len("explanation:") :]]
            rest.extend(lines[i + 1 :])
            explanation = _strip_brackets("\n".join(rest).strip())
            break
    if used is None:
        raise ResponseParseError("response has no USED: line", raw=response)
    if used and not explanation:
        raise ResponseParseError(
            "positive relevance verdict without an explanation", raw=response
        )
    return RelevanceVerdict(used=used, explanation=explanation)


# ---------------------------------------------------------------------------
# Section labeling
# ---------------------------------------------------------------------------

_SEGMENT_LABELS = {
    "abstract&introduction": SectionLabel.ABSTRACT_INTRO,
    "abstract & introduction": SectionLabel.ABSTRACT_INTRO,
    "abstract and introduction": SectionLabel.ABSTRACT_INTRO,
    "abstract": SectionLabel.ABSTRACT_INTRO,
    "introduction": SectionLabel.ABSTRACT_INTRO,
    "related works": SectionLabel.RELATED_WORK,
    "related work": SectionLabel.RELATED_WORK,
    "method": SectionLabel.METHOD,
    "methods": SectionLabel.METHOD,
    "methodology": SectionLabel.METHOD,
    "experiment": SectionLabel.EXPERIMENT,
    "experiments": SectionLabel.EXPERIMENT,
    "results": SectionLabel.EXPERIMENT,
    "conclusion": SectionLabel.CONCLUSION,
    "conclusions": SectionLabel.CONCLUSION,
    "none": SectionLabel.NONE,
}


def classify_segment(text: str, gateway: Gateway, template: str) -> SectionLabel:
    """Classify one text chunk into a section label; unknowns map to None."""
    if not text.strip():
        raise ValueError("segment text must be nonempty")
    return parse_segment_label(ask(gateway, "segment", template, section_text=text))


def parse_segment_label(response: str) -> SectionLabel:
    value = response.strip().strip("\"'").lower()
    value = re.sub(r"^\d+\s*[.)]\s*", "", value)
    value = value.rstrip(".").strip()
    return _SEGMENT_LABELS.get(value, SectionLabel.NONE)


def label_segments(
    paper_text: str, gateway: Gateway, template: str
) -> tuple[tuple[SectionLabel, str], ...]:
    """Split on blank lines, classify each chunk, merge same-label neighbors."""
    chunks = [c.strip() for c in re.split(r"\n\s*\n", paper_text) if c.strip()]
    if not chunks:
        raise ValueError("paper text has no nonblank content")
    merged: list[tuple[SectionLabel, str]] = []
    for chunk in chunks:
        label = classify_segment(chunk, gateway, template)
        if merged and merged[-1][0] is label:
            merged[-1] = (label, merged[-1][1] + "\n\n" + chunk)
        else:
            merged.append((label, chunk))
    return tuple(merged)


# ---------------------------------------------------------------------------
# Aspect extraction (stage one)
# ---------------------------------------------------------------------------

_ASPECT_HEADERS = {
    "background": Aspect.BACKGROUND,
    "research objective": Aspect.RESEARCH_OBJECTIVE,
    "research objectives": Aspect.RESEARCH_OBJECTIVE,
    "methods": Aspect.METHODS,
    "method": Aspect.METHODS,
    "challenges": Aspect.CHALLENGES,
    "challenge": Aspect.CHALLENGES,
    "dataset": Aspect.DATASET,
    "datasets": Aspect.DATASET,
    "dataset usage": Aspect.DATASET,
    "findings": Aspect.FINDINGS,
    "finding": Aspect.FINDINGS,
}

_HEADER_RE = re.compile(
    r"^\s*(?:[-*]\s*)?(" + "|".join(sorted(_ASPECT_HEADERS, key=len, reverse=True)) + r")\s*:\s*(.*)$",
    re.IGNORECASE,
)
_BULLET_RE = re.compile(r"^\s*(?:[-*]|\d+\s*[.)])\s+(.*)$")


def extract_aspects(section_text: str, gateway: Gateway, template: str) -> AspectDraft:
    """One extraction pass over a section; each aspect block becomes
    candidates.  The draft carries no ids: `merge_drafts` gives them."""
    if not section_text.strip():
        raise ValueError("section text must be nonempty")
    return parse_aspect_draft(ask(gateway, "extract", template, section_text=section_text))


def parse_aspect_draft(response: str) -> AspectDraft:
    found: dict[Aspect, list[str]] = {}
    current: Aspect | None = None
    saw_header = False
    for line in response.splitlines():
        m = _HEADER_RE.match(line)
        if m:
            saw_header = True
            current = _ASPECT_HEADERS[m.group(1).lower()]
            found.setdefault(current, [])
            value = _strip_brackets(m.group(2))
            if value and value.lower() != "none":
                found[current].append(value)
            continue
        if current is None:
            continue
        b = _BULLET_RE.match(line)
        if b:
            value = _strip_brackets(b.group(1))
            if value and value.lower() != "none":
                found[current].append(value)
            continue
        text = line.strip()
        if not text:
            current = None
            continue
        if found[current]:
            found[current][-1] = found[current][-1] + " " + text
        elif text.lower() != "none":
            found[current].append(text)
    if not saw_header:
        raise ResponseParseError("response contains no aspect headers", raw=response)
    return AspectDraft.from_mapping("", "", found)


def merge_drafts(
    drafts: list[AspectDraft], dataset_id: str, paper_id: str
) -> AspectDraft:
    """Concatenate per-section drafts into one draft per (dataset, paper)."""
    merged: dict[Aspect, list[str]] = {a: [] for a in ASPECT_ORDER}
    for draft in drafts:
        for aspect, texts in draft.candidates:
            merged[aspect].extend(texts)
    return AspectDraft.from_mapping(dataset_id, paper_id, merged)


# ---------------------------------------------------------------------------
# Aspect verification (stage two)
# ---------------------------------------------------------------------------


def format_draft(draft: AspectDraft) -> str:
    """Numbered per-aspect listing shown to the verifier."""
    blocks = []
    for aspect, texts in draft.candidates:
        lines = [f"{aspect.display}:"]
        if texts:
            lines.extend(f"{i}. {t}" for i, t in enumerate(texts, start=1))
        else:
            lines.append("None")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def verify_aspects(
    draft: AspectDraft,
    dataset: DatasetRecord,
    gateway: Gateway,
    template: str,
    *,
    warnings: list[str],
) -> list[AspectUnit]:
    """Keep the verifier-approved candidates, turning them into AspectUnits.

    An aspect with candidates but an empty (or missing) keep list retains its
    first candidate, appending a warning to `warnings`; the verifier must
    keep at least one item per nonempty section.
    """
    if not draft.has_candidates():
        raise ValueError("draft has no candidates to verify")
    response = ask(
        gateway,
        "verify",
        template,
        dataset_title=dataset.title,
        dataset_description=dataset.description,
        section_text=format_draft(draft),
    )
    kept = parse_keep_indices(response)
    units: list[AspectUnit] = []
    for aspect, texts in draft.candidates:
        indices = kept.get(aspect, [])
        for idx in indices:
            if not 1 <= idx <= len(texts):
                raise ResponseParseError(
                    f"{aspect.display}: keep index {idx} out of range 1..{len(texts)}",
                    raw=response,
                )
        if not indices and texts:
            warnings.append(
                f"{draft.dataset_id}/{draft.paper_id}: verifier kept nothing "
                f"for {aspect.display}; retaining first candidate"
            )
            indices = [1]
        for idx in sorted(set(indices)):
            units.append(
                AspectUnit(
                    dataset_id=draft.dataset_id,
                    paper_id=draft.paper_id,
                    aspect=aspect,
                    text=texts[idx - 1],
                )
            )
    return units


_KEEP_RE = re.compile(r"keep-indices\s*:?", re.IGNORECASE)


def parse_keep_indices(response: str) -> dict[Aspect, list[int]]:
    m = _KEEP_RE.search(response)
    if not m:
        raise ResponseParseError("response has no KEEP-INDICES block", raw=response)
    kept: dict[Aspect, list[int]] = {}
    for line in response[m.end() :].splitlines():
        stripped = line.strip()
        if stripped.lower().startswith("reason:"):
            break
        hm = _HEADER_RE.match(line)
        if not hm:
            continue
        aspect = _ASPECT_HEADERS[hm.group(1).lower()]
        value = _strip_brackets(hm.group(2))
        if not value or value.lower() in ("none", "empty"):
            kept[aspect] = []
            continue
        indices = []
        for token in re.split(r"[,\s]+", value):
            token = token.strip("[],")
            if not token:
                continue
            if not token.lstrip("-").isdigit():
                raise ResponseParseError(
                    f"{aspect.display}: non-integer keep index {token!r}", raw=response
                )
            indices.append(int(token))
        kept[aspect] = indices
    return kept
