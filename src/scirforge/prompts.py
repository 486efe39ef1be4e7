"""Prompt template loading and rendering, and `ask` for single-turn prompts.

Templates are plain text files with {lowercase_name} placeholders.  Braces
that do not wrap a lowercase identifier (JSON examples, set notation) pass
through untouched, which is why templates are split by a regex rather than
rendered with str.format.
"""
from __future__ import annotations

import functools
import re
from pathlib import Path

from .gateway import Gateway, PromptRequest

TEMPLATE_DIR = Path(__file__).parent / "templates"

_PLACEHOLDER = re.compile(r"\{([a-z][a-z0-9_]*)\}")


def template_path(name: str, template_dir: Path | None = None) -> Path:
    """`template_dir/name` when that file exists, else the bundled template:
    a template directory overrides file by file."""
    if template_dir:
        path = Path(template_dir) / name
        if path.exists():
            return path
    return TEMPLATE_DIR / name


def load_template(name: str, template_dir: Path | None = None) -> str:
    """The text of `template_path(name, template_dir)`.  Stages do not call
    this: they read each template as a declared input."""
    path = template_path(name, template_dir)
    if not path.exists():
        raise FileNotFoundError(f"template not found: {path}")
    return path.read_text(encoding="utf-8")


@functools.lru_cache(maxsize=256)
def _split(template: str) -> tuple[str, ...]:
    """The template as literal text and placeholder names, alternating:
    literals at even positions, names at odd ones."""
    return tuple(_PLACEHOLDER.split(template))


def render(template: str, **values: str) -> str:
    """Substitute every {name} placeholder; missing values are an error."""
    parts = _split(template)
    out = list(parts)
    try:
        for i in range(1, len(out), 2):
            out[i] = str(values[out[i]])
    except KeyError:
        missing = set(parts[1::2]) - set(values)
        raise KeyError(f"template placeholders without values: {sorted(missing)}") from None
    return "".join(out)


def ask(gateway: Gateway, stage: str, template: str, **values: str) -> str:
    """Render `template` with `values` and send it as one user message at
    temperature 0; the stage labels the call."""
    prompt = render(template, **values)
    request = PromptRequest((("user", prompt),), gateway.model, temperature=0.0)
    return gateway.complete(request, stage=stage)


_ROLE_MARKER = re.compile(r"^(SYSTEM|USER):\s*$", re.MULTILINE)


@functools.lru_cache(maxsize=64)
def split_roles(text: str) -> tuple[tuple[str, str], ...]:
    """Split a template on SYSTEM:/USER: marker lines into chat messages.

    Text without markers becomes a single user message.
    """
    markers = list(_ROLE_MARKER.finditer(text))
    if not markers:
        return (("user", text.strip()),)
    messages = []
    for i, m in enumerate(markers):
        start = m.end()
        end = markers[i + 1].start() if i + 1 < len(markers) else len(text)
        body = text[start:end].strip()
        if body:
            messages.append((m.group(1).lower(), body))
    if not messages:
        raise ValueError("role markers present but every section is empty")
    return tuple(messages)


def render_roles(template: str, **values: str) -> tuple[tuple[str, str], ...]:
    """A template's chat messages with every placeholder substituted: each
    section is rendered on its own and stripped, and an empty one dropped.
    Role markers come from the template alone, so a value holding a
    SYSTEM: or USER: line stays inside its message."""
    return tuple(
        (role, text)
        for role, section in split_roles(template)
        if (text := render(section, **values).strip())
    )
