"""Prompt templates: bundled defaults, template_dir overrides, and
single-turn prompts through `ask`."""
import pytest

from conftest import make_gateway
from scirforge.core import CognitiveLevel
from scirforge.evalqa import classify_cognitive_level
from scirforge.gateway import BackendConfig, Gateway
from scirforge.prompts import TEMPLATE_DIR, ask, load_template, render, render_roles, split_roles


def test_custom_template_dir_wins_over_bundled(tmp_path):
    custom = tmp_path / "templates"
    custom.mkdir()
    (custom / "cognitive.txt").write_text("CUSTOM LEVEL PROMPT: {question}\n", encoding="utf-8")
    bundled = (TEMPLATE_DIR / "cognitive.txt").read_text(encoding="utf-8")

    assert load_template("cognitive.txt", custom) == "CUSTOM LEVEL PROMPT: {question}\n"
    assert load_template("cognitive.txt") == bundled

    # The override is what reaches the model: the script only answers the custom prompt.
    gw = make_gateway(
        tmp_path,
        [{"kind": "chat", "stage": "cognitive", "match": "^user: CUSTOM LEVEL PROMPT", "response": "C4"}],
    )
    custom_text = load_template("cognitive.txt", custom)
    assert classify_cognitive_level("why?", gw, custom_text) is CognitiveLevel.C4


def test_missing_template_raises_every_time(tmp_path):
    for _ in range(2):
        with pytest.raises(FileNotFoundError, match="template not found"):
            load_template("no_such_template.txt", tmp_path)
    # A miss is not remembered: the file is found once it exists.
    (tmp_path / "no_such_template.txt").write_text("now here", encoding="utf-8")
    assert load_template("no_such_template.txt", tmp_path) == "now here"


def test_same_name_in_two_dirs_keeps_each_text(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    for directory, text in ((first, "from a {question}"), (second, "from b {question}")):
        directory.mkdir()
        (directory / "rag.txt").write_text(text, encoding="utf-8")
    for _ in range(2):
        assert load_template("rag.txt", first) == "from a {question}"
        assert load_template("rag.txt", second) == "from b {question}"


class _RecordingBackend:
    identity = "recording"

    def __init__(self):
        self.seen = []

    def complete(self, request, stage):
        self.seen.append((request, stage))
        return "answer"


def test_ask_sends_stage_template_as_one_user_message():
    backend = _RecordingBackend()
    gw = Gateway(backend, BackendConfig(kind="mock", script_path="unused", model="m1"))
    template = "Q: {question} P: {passages}"
    assert ask(gw, "rag", template, question="why?", passages="none") == "answer"
    ((request, stage),) = backend.seen
    assert stage == "rag"
    assert request.messages == (("user", "Q: why? P: none"),)
    assert request.model_name == "m1" and request.temperature == 0.0


def test_render_fills_names_and_passes_other_braces_through():
    template = 'JSON {"a": 1} {set} {Upper} {} {{question}} {question}{passages}{question}'
    assert render(template, question="Q", passages="P", set="S") == (
        'JSON {"a": 1} S {Upper} {} {Q} QPQ'
    )
    assert render("no placeholders") == "no placeholders"
    assert render("{n}", n=3) == "3"
    for _ in range(2):  # the split template is cached; a miss is not
        with pytest.raises(KeyError, match=r"without values: \['passages', 'z_9'\]"):
            render("{question} {passages} {z_9} {passages}", question="Q")


def test_render_roles_equals_splitting_the_rendered_text():
    """Without a marker line in any value, splitting the template first
    gives the messages that splitting the rendered text gave."""
    template = load_template("generate.txt")
    values = {
        "context": "- Metadata: Toy.\n\n{not a name}\nSYSTEM: inline, not a marker",
        "type_name": "Definition", "type_definition": "d", "type_example": "e", "n": "3",
    }
    assert render_roles(template, **values) == split_roles(render(template, **values))
    assert render_roles("no markers {x}\n", x=" y ") == (("user", "no markers  y"),)
