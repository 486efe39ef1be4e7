"""Taxonomy-guided QA generation.

Datasets that acquired verified aspect passages get the full plan (all 18
question types, three pairs each); metadata-only datasets get one pair for
each of eight model-selected types.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

from .core import (
    ASPECT_ORDER,
    Aspect,
    AspectUnit,
    DatasetRecord,
    Provenance,
    QAPair,
    QUESTION_TYPE_ORDER,
    QuestionType,
    ResponseParseError,
    match_question_type,
)
from .gateway import Gateway, PromptRequest
from .prompts import ask, render_roles

WITH_PAPER_QUOTA = 3
METADATA_ONLY_TYPES = 8


@dataclass(frozen=True)
class TaxonomyEntry:
    qtype: QuestionType
    definition: str
    example: str

    def __post_init__(self):
        if not self.definition.strip() or not self.example.strip():
            raise ValueError(f"{self.qtype.value}: definition and example required")


def load_taxonomy(path: Path) -> dict[QuestionType, TaxonomyEntry]:
    """Load the 18-entry type registry; every type must appear exactly once."""
    raw = json.loads(path.read_text(encoding="utf-8"))
    registry: dict[QuestionType, TaxonomyEntry] = {}
    for item in raw:
        qtype = match_question_type(item["name"])
        if qtype is None:
            raise ValueError(f"{path}: unknown question type {item['name']!r}")
        if qtype in registry:
            raise ValueError(f"{path}: duplicate entry for {qtype.value}")
        registry[qtype] = TaxonomyEntry(qtype, item["definition"], item["example"])
    missing = [q.value for q in QUESTION_TYPE_ORDER if q not in registry]
    if missing:
        raise ValueError(f"{path}: missing question types {missing}")
    return registry


def type_catalog(taxonomy: dict[QuestionType, TaxonomyEntry]) -> str:
    """Numbered name+definition listing, in canonical order."""
    return "\n\n".join(
        f"{i}. {q.value}: {taxonomy[q].definition}"
        for i, q in enumerate(QUESTION_TYPE_ORDER, start=1)
    )


@dataclass(frozen=True)
class GenerationPlan:
    dataset_id: str
    mode: Provenance
    quotas: tuple[tuple[QuestionType, int], ...]

    def __post_init__(self):
        types = [q for q, _ in self.quotas]
        if len(set(types)) != len(types):
            raise ValueError("plan has duplicate question types")
        if self.mode is Provenance.WITH_PAPER:
            if tuple(types) != QUESTION_TYPE_ORDER or any(
                n != WITH_PAPER_QUOTA for _, n in self.quotas
            ):
                raise ValueError("full plan must cover all 18 types, quota 3 each")
        else:
            if len(types) != METADATA_ONLY_TYPES or any(n != 1 for _, n in self.quotas):
                raise ValueError("metadata-only plan must hold 8 types, quota 1 each")

    def total(self) -> int:
        return sum(n for _, n in self.quotas)


def plan_generation(
    dataset: DatasetRecord,
    has_aspects: bool,
    gateway: Gateway,
    taxonomy: dict[QuestionType, TaxonomyEntry],
    template: str,
) -> GenerationPlan:
    """Full 54-pair plan with aspects, else an 8-pair metadata-only plan."""
    if has_aspects:
        return GenerationPlan(
            dataset.id,
            Provenance.WITH_PAPER,
            tuple((q, WITH_PAPER_QUOTA) for q in QUESTION_TYPE_ORDER),
        )
    if not dataset.title.strip() and not dataset.description.strip():
        raise ValueError(f"dataset {dataset.id}: no metadata to condition on")
    selected = select_question_types(dataset, gateway, taxonomy, template)
    return GenerationPlan(
        dataset.id, Provenance.METADATA_ONLY, tuple((q, 1) for q in selected)
    )


def select_question_types(
    dataset: DatasetRecord,
    gateway: Gateway,
    taxonomy: dict[QuestionType, TaxonomyEntry],
    template: str,
) -> list[QuestionType]:
    """Ask which 8 types suit this dataset's metadata; parse and dedupe names."""
    response = ask(
        gateway,
        "select_types",
        template,
        type_catalog=type_catalog(taxonomy),
        dataset_title=dataset.title,
        dataset_description=dataset.description,
    )
    return parse_type_selection(response)


_NUMBERING_RE = re.compile(r"^\s*(?:[-*]|\d+\s*[.)])\s*")


def parse_type_selection(response: str) -> list[QuestionType]:
    seen: list[QuestionType] = []
    for line in response.splitlines():
        parts = line.split(",") if "," in line else [line]
        for part in parts:
            name = _NUMBERING_RE.sub("", part).strip().strip(".;:")
            if not name:
                continue
            qtype = match_question_type(name)
            if qtype is not None and qtype not in seen:
                seen.append(qtype)
    if len(seen) < METADATA_ONLY_TYPES:
        raise ResponseParseError(
            f"needed {METADATA_ONLY_TYPES} distinct question types, "
            f"matched {len(seen)}",
            raw=response,
        )
    return seen[:METADATA_ONLY_TYPES]


def build_context(dataset: DatasetRecord, aspects: list[AspectUnit]) -> str:
    """Deterministic field block: metadata line, then grouped aspect passages."""
    parts = [f"- Metadata: {dataset.title}. {dataset.description}".rstrip()]
    grouped: dict[Aspect, list[str]] = {a: [] for a in ASPECT_ORDER}
    for unit in aspects:
        grouped[unit.aspect].append(unit.text)
    blocks = [
        f"{aspect.display}:\n" + "\n".join(texts)
        for aspect, texts in ((a, grouped[a]) for a in ASPECT_ORDER)
        if texts
    ]
    if blocks:
        parts.append("\n- Content of relevant Papers:\n\n" + "\n\n".join(blocks))
    return "\n".join(parts)


def type_slug(qtype: QuestionType) -> str:
    return re.sub(r"[^a-z0-9]+", "-", qtype.value.lower()).strip("-")


_FENCE_RE = re.compile(r"^```[a-zA-Z]*\s*$", re.MULTILINE)


def extract_json_array(response: str) -> list:
    """First well-formed JSON array anywhere in the response."""
    text = _FENCE_RE.sub("", response)
    decoder = json.JSONDecoder()
    idx = text.find("[")
    while idx != -1:
        try:
            value, _ = decoder.raw_decode(text, idx)
        except ValueError:
            idx = text.find("[", idx + 1)
            continue
        if isinstance(value, list):
            return value
        idx = text.find("[", idx + 1)
    raise ResponseParseError("response contains no JSON array", raw=response)


def generate_qa(
    context: str,
    entry: TaxonomyEntry,
    n: int,
    gateway: Gateway,
    dataset_id: str,
    temperature: float,
    regen_attempts: int,
    provenance: Provenance = Provenance.WITH_PAPER,
    *,
    template: str,
    warnings: list[str],
) -> list[QAPair]:
    """Generate up to n pairs of one type; re-prompt on unusable responses.

    A response yielding some but fewer than n valid pairs is accepted with a
    warning appended to `warnings`; only zero-valid responses consume
    regeneration attempts.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    messages = render_roles(
        template,
        context=context,
        type_name=entry.qtype.value,
        type_definition=entry.definition,
        type_example=entry.example,
        n=str(n),
    )
    last_error: ResponseParseError | None = None
    for attempt in range(regen_attempts + 1):
        attempt_messages = list(messages)
        if attempt > 0:
            attempt_messages.append(
                (
                    "user",
                    f"Attempt {attempt + 1}: the previous response could not be "
                    "parsed. Return only a JSON array of objects with "
                    '"question" and "answer" string fields.',
                )
            )
        response = gateway.complete(
            PromptRequest(tuple(attempt_messages), gateway.model, temperature=temperature),
            stage="generate",
        )
        try:
            pairs = _parse_pairs(response, entry, n, dataset_id, provenance, warnings)
        except ResponseParseError as exc:
            last_error = exc
            continue
        return pairs
    assert last_error is not None
    raise last_error


def _parse_pairs(
    response: str,
    entry: TaxonomyEntry,
    n: int,
    dataset_id: str,
    provenance: Provenance,
    warnings: list[str],
) -> list[QAPair]:
    items = extract_json_array(response)
    slug = type_slug(entry.qtype)
    pairs: list[QAPair] = []
    dropped = 0
    for item in items:
        if not isinstance(item, dict):
            dropped += 1
            continue
        question = item.get("question")
        answer = item.get("answer")
        if (
            not isinstance(question, str)
            or not isinstance(answer, str)
            or not question.strip()
            or not answer.strip()
        ):
            dropped += 1
            continue
        pairs.append(
            QAPair(
                id=f"{dataset_id}:{slug}:{len(pairs) + 1}",
                dataset_id=dataset_id,
                qtype=entry.qtype,
                question=question.strip(),
                answer=answer.strip(),
                provenance=provenance,
            )
        )
        if len(pairs) == n:
            break
    if not pairs:
        raise ResponseParseError("no valid question/answer objects", raw=response)
    if len(pairs) < n:
        warnings.append(
            f"{dataset_id}/{entry.qtype.value}: wanted {n} pairs, "
            f"kept {len(pairs)} ({dropped} invalid items)"
        )
    return pairs
