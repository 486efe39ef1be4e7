"""Property tests for split apportionment, the JSONL record format,
gateway cache keys and the cache log's keydir."""
import hashlib
import json
import struct
from array import array
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from scirforge.core import (  # noqa: E402
    JSON_LINE,
    AnswerForm,
    Aspect,
    AspectUnit,
    CognitiveLevel,
    DatasetRecord,
    Decision,
    FilterVerdict,
    PaperRecord,
    Provenance,
    QAPair,
    QuestionType,
    SectionLabel,
    answer_form,
    load_records,
    read_jsonl,
    record_from_dict,
    record_to_dict,
    split_sizes,
    write_jsonl,
)
from scirforge import gateway  # noqa: E402
from scirforge.gateway import (  # noqa: E402
    CACHE_LOG,
    BackendConfig,
    Gateway,
    PromptRequest,
    ScoredContinuation,
    _key,
)
from scirforge.evalqa import QAEvalRecord  # noqa: E402
from scirforge.pipeline import STAGES, _IndexDoc, _MatchRow, _Splits, _VerdictRow  # noqa: E402
from scirforge.retrieval import DocUnit, IndexConfig  # noqa: E402


@st.composite
def _ratios(draw):
    first = draw(st.integers(0, 100))
    second = draw(st.integers(0, 100 - first))
    return (first, second, 100 - first - second)


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 10**20) | st.integers(0, 1000), _ratios())
def test_split_sizes_apportions_total(total, ratios):
    sizes = split_sizes(total, ratios)
    assert sum(sizes) == total
    for size, ratio in zip(sizes, ratios):
        assert abs(size - Fraction(total * ratio, 100)) < 1


def split_sizes_oracle(total, ratios):
    """Largest remainder over exact fractions; ties go to the earlier share."""
    quotas = [Fraction(total * r, 100) for r in ratios]
    sizes = [int(q) for q in quotas]
    order = sorted(range(3), key=lambda i: (-(quotas[i] - sizes[i]), i))
    for i in order[: total - sum(sizes)]:
        sizes[i] += 1
    return tuple(sizes)


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 10**20) | st.integers(0, 1000), _ratios())
def test_split_sizes_matches_largest_remainder_oracle(total, ratios):
    assert split_sizes(total, ratios) == split_sizes_oracle(total, ratios)


_TEXT = st.text(min_size=1, max_size=30)


@st.composite
def _datasets(draw):
    ids = draw(st.lists(_TEXT, max_size=6, unique=True))
    return [
        DatasetRecord(
            id=i,
            title=draw(_TEXT),
            description=draw(st.text(max_size=30)),
            topics=tuple(draw(st.lists(st.text(max_size=10), max_size=3))),
            linked_paper_ids=tuple(draw(st.lists(_TEXT, max_size=3, unique=True))),
        )
        for i in ids
    ]


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _verdicts(draw):
    delta = draw(_FINITE)
    decision = Decision.ACCEPT if delta > 0 else Decision.REJECT
    return FilterVerdict(delta, decision, draw(_FINITE), draw(_FINITE))


_NONBLANK = _TEXT.filter(str.strip)

_PAIRS = st.builds(
    QAPair,
    id=_TEXT,
    dataset_id=_TEXT,
    qtype=st.sampled_from(QuestionType),
    question=_NONBLANK,
    answer=_NONBLANK,
    provenance=st.sampled_from(Provenance),
    verdict=st.none() | _verdicts(),
)


@settings(max_examples=100, deadline=None)
@given(_datasets(), st.lists(_PAIRS, max_size=6))
def test_jsonl_round_trip_property(tmp_path_factory, datasets, pairs):
    # Any text, including line breaks and non-ASCII, stays on its own line.
    tmp = tmp_path_factory.mktemp("jsonl")
    write_jsonl(tmp / "d.jsonl", datasets, DatasetRecord)
    write_jsonl(tmp / "q.jsonl", pairs, QAPair)
    assert load_records(tmp / "d.jsonl", DatasetRecord) == datasets
    assert load_records(tmp / "q.jsonl", QAPair) == pairs
    assert [n for n, _ in read_jsonl(tmp / "q.jsonl")] == list(range(1, len(pairs) + 1))


_DOC_UNITS = st.builds(
    DocUnit,
    dataset_id=st.text(max_size=10),
    source=st.sampled_from(["Metadata", *(f"Aspect:{a.value}" for a in Aspect)]),
    text=_NONBLANK,
)


@st.composite
def _eval_rows(draw):
    qtype = draw(st.sampled_from(QuestionType))
    long_form = answer_form(qtype) is AnswerForm.LONG
    return QAEvalRecord(
        pair_id=draw(_TEXT),
        model=draw(st.text(max_size=10)),
        prediction=draw(st.text(max_size=30)),
        correct=draw(st.booleans()),
        qtype=qtype,
        rouge_l=draw(st.floats(0, 1)) if long_form else None,
        k=draw(st.integers(0, 10**6)),
        level=draw(st.sampled_from(CognitiveLevel)),
    )


_IDS = st.lists(st.text(max_size=10), max_size=4).map(tuple)

# A strategy for each record type, keyed by the type.
_RECORDS_BY_TYPE = {
    DatasetRecord: _datasets().filter(bool).map(lambda records: records[0]),
    PaperRecord: st.builds(
        PaperRecord,
        id=_TEXT,
        title=st.text(max_size=30),
        segments=st.lists(st.tuples(st.sampled_from(SectionLabel), _TEXT), max_size=3),
    ),
    AspectUnit: st.builds(
        AspectUnit,
        dataset_id=st.text(max_size=10),
        paper_id=st.text(max_size=10),
        aspect=st.sampled_from(Aspect),
        text=_NONBLANK,
    ),
    FilterVerdict: _verdicts(),
    QAPair: _PAIRS,
    DocUnit: _DOC_UNITS,
    _MatchRow: st.builds(
        _MatchRow,
        dataset_id=_TEXT,
        paper_id=_TEXT,
        used=st.booleans(),
        explanation=st.text(max_size=30),
        truncated=st.booleans(),
    ),
    _VerdictRow: st.builds(
        lambda verdict, pair_id, model: _VerdictRow(**vars(verdict), pair_id=pair_id, model=model),
        _verdicts(),
        _TEXT,
        st.text(max_size=10),
    ),
    QAEvalRecord: _eval_rows(),
    _IndexDoc: st.builds(
        _IndexDoc,
        config=st.sampled_from(IndexConfig),
        k1=_FINITE,
        b=_FINITE,
        units=st.lists(_DOC_UNITS, max_size=3).map(tuple),
    ),
    _Splits: st.builds(
        _Splits, ratios=_ratios(), seed=st.integers(), train=_IDS, dev=_IDS, test=_IDS
    ),
}


def test_every_declared_row_type_has_a_strategy():
    declared = {cls for stage in STAGES for cls in stage.writes.values() if cls is not None}
    assert declared <= _RECORDS_BY_TYPE.keys()


@settings(max_examples=500, deadline=None)
@given(st.one_of(*_RECORDS_BY_TYPE.values()))
def test_record_round_trip_property(record):
    # Every record type reads back from the JSON its writer makes, through
    # the one codec, and what it reads back writes the same bytes again.
    text = JSON_LINE.encode(record_to_dict(record))
    again = record_from_dict(type(record), json.loads(text))
    assert again == record
    assert JSON_LINE.encode(record_to_dict(again)) == text


@st.composite
def _two_splits(draw, min_piece=0):
    """One text cut into pieces at two different sets of points."""
    text = draw(st.text(min_size=2 * min_piece, max_size=12))
    points = st.integers(min_piece, len(text) - min_piece)

    def split():
        cuts = sorted(draw(st.sets(points, max_size=3)))
        return tuple(text[i:j] for i, j in zip([0, *cuts], [*cuts, len(text)]))

    return split(), split()


@settings(max_examples=200, deadline=None)
@given(_two_splits() | st.tuples(st.lists(st.text(max_size=4)), st.lists(st.text(max_size=4))))
def test_different_fields_give_different_keys(fields):
    a, b = (tuple(f) for f in fields)
    assume(a != b)
    assert _key(*a) != _key(*b)
    assert _key(*a) == _key(*a)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(max_size=40), max_size=8))
def test_key_bytes_are_the_cache_logs(fields):
    # Another key for the same request would orphan every existing cache.
    blob = b"".join(len(f.encode()).to_bytes(8, "big") + f.encode() for f in fields)
    assert _key(*fields) == hashlib.sha256(blob).hexdigest().encode("ascii")


class _EchoBackend:
    identity = "echo"

    def __init__(self):
        self.calls = 0

    def complete(self, request, stage):
        self.calls += 1
        return repr(request.messages)


@settings(max_examples=100, deadline=None)
@given(_two_splits(min_piece=1), st.sampled_from(["user", "system", "assistant"]))
def test_messages_split_differently_are_cached_apart(tmp_path_factory, splits, role):
    requests = [
        PromptRequest(tuple((role, text) for text in pieces), "m") for pieces in splits
    ]
    assume(requests[0] != requests[1])
    cache = tmp_path_factory.mktemp("cache")
    backend = _EchoBackend()
    gw = Gateway(backend, BackendConfig(kind="mock", script_path="unused", cache_dir=str(cache)))
    for request in requests:
        assert gw.complete(request) == repr(request.messages)
    assert backend.calls == 2 and gw.cache_hits == 0
    gw.close()


class _AnswerBackend:
    """Answers every chat with `response` and every scoring call with
    `scored`; with neither, any call fails the test."""

    identity = "answers"

    def __init__(self, response=None, scored=None):
        self.response, self.scored = response, scored

    def complete(self, request, stage):
        assert self.response is not None, "a hit reached the backend"
        return self.response

    def score(self, context, continuation, model, stage):
        assert self.scored is not None, "a hit reached the backend"
        return self.scored


def _bits(scored):
    """Each logprob's bytes: -0.0 == 0.0 in Python, but not here."""
    return [struct.pack("<d", lp) for lp in scored.logprobs]


_LOGPROB = st.one_of(
    st.floats(max_value=0.0, allow_nan=False),  # -0.0, subnormals and -inf among them
    st.sampled_from([-0.0, -5e-324, -2.2250738585072014e-308, float("-inf"),
                     -0.12345678901234568, -1.7976931348623157e308]),
)


@settings(max_examples=150, deadline=None)
@given(
    st.text(st.characters(blacklist_categories=("Cs",))),  # tabs and newlines too
    st.lists(_LOGPROB, min_size=1, max_size=8),
    st.booleans(),
)
def test_a_hit_returns_what_the_miss_returned(tmp_path_factory, response, logprobs, with_tokens):
    """A miss returns the backend's own answer; another gateway's hit on the
    same log returns an equal one, each logprob bit for bit. A score line
    in the earlier form, with `tokens` beside `logprobs`, is a hit too."""
    cache = tmp_path_factory.mktemp("cache")
    config = BackendConfig(kind="mock", script_path="unused", cache_dir=str(cache))
    request = PromptRequest((("user", "q"),), "m")
    scored = ScoredContinuation(logprobs)
    first = Gateway(_AnswerBackend(response, scored), config)
    try:
        assert first.complete(request) is response
        assert first.score_continuation("c", " a") is scored
    finally:
        first.close()
    log = cache / CACHE_LOG
    if with_tokens:
        lines = log.read_bytes().splitlines(keepends=True)
        key, value = lines[1].split(b"\t", 1)
        assert value.startswith(b'{"logprobs": ')
        tokens = json.dumps(["t"] * len(logprobs)).encode()
        lines[1] = key + b'\t{"tokens": ' + tokens + b", " + value[1:]
        log.write_bytes(b"".join(lines))
    gateway._LOG_INDEXES.clear()
    second = Gateway(_AnswerBackend(), config)
    try:
        assert second.complete(request) == response
        hit = second.score_continuation("c", " a")
    finally:
        second.close()
    assert hit == scored and _bits(hit) == _bits(scored)
    assert _bits(scored) == [struct.pack("<d", lp) for lp in logprobs]
    assert second.cache_hits == 2 and second.backend_calls == 0


class _DictIndex:
    """The oracle for the keydir: the cache log indexed by one dict from
    each key to the offset and length of its latest line. It reads the log
    the gateway writes and follows the gateway's rules: a miss indexes the
    unread tail, up to its last complete line, and a new gateway in the same
    process keeps the index."""

    def __init__(self, log):
        self.log = log
        self.offsets = {}
        self.indexed = 0

    def lookup(self, key):
        """The value a lookup of `key` serves, or None for a miss."""
        if key not in self.offsets and self.log.stat().st_size > self.indexed:
            *lines, _ = self.log.read_bytes()[self.indexed :].split(b"\n")
            for line in lines:
                cut = line.find(b"\t")
                if cut > 0:
                    self.offsets[line[:cut]] = (self.indexed, len(line) + 1)
                self.indexed += len(line) + 1
        if key not in self.offsets:
            return None
        offset, length = self.offsets[key]
        line = self.log.read_bytes()[offset : offset + length]
        assert line.startswith(key + b"\t") and line.endswith(b"\n")  # append-only
        try:
            value = json.loads(line[len(key) + 1 :])
        except ValueError:
            return None
        return value if isinstance(value, dict) and "response" in value else None

    def appended(self, key, start, after):
        """Index the line the gateway appended for `key`: it first wrote the
        line at byte `start`, and the log ended at byte `after` when the
        append was done. The line it indexes is the log's last, which starts
        a line (a copy, if the first one joined a torn line)."""
        line_start = self.log.read_bytes()[:after].rfind(b"\n", 0, after - 1) + 1
        self.offsets[key] = (line_start, after - line_start)
        if start == self.indexed:
            self.indexed = after


_N_TEXTS = 8
_KEYDIR_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("call"), st.integers(0, _N_TEXTS - 1)),
        st.tuples(st.just("write"), st.integers(0, _N_TEXTS - 1)),
        st.tuples(st.just("torn"), st.integers(0, _N_TEXTS - 1), st.integers(1, 120)),
        # A call during which another writer leaves a torn line.
        st.tuples(st.just("call"), st.integers(0, _N_TEXTS - 1), st.integers(1, 120)),
        st.tuples(st.just("reopen")),
        st.tuples(st.just("restart")),
        st.tuples(st.just("fold")),
    ),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(
    _KEYDIR_OPS,
    st.sampled_from([1, 16]),  # 1 hex digit: 16 prefixes for 8 keys, so collisions are common
    st.sampled_from([6, 24]),  # 6 bits: every line is longer than its length field
    st.integers(1, 4),
)
def test_keydir_matches_a_dict_index(tmp_path_factory, ops, digits, length_bits, recent_min):
    """Appends, re-appended keys, lines another process appends, torn
    tails a crashed writer leaves (also while a call is in flight), gateways
    that take over the index or index afresh, and folds: every lookup serves
    what a dict index of the same log would."""
    log = tmp_path_factory.mktemp("keydir") / CACHE_LOG
    config = BackendConfig(kind="mock", script_path="unused", cache_dir=str(log.parent))
    keys = [_key("keydir", str(i)) for i in range(_N_TEXTS)]
    calls = 0
    # The torn line the next fetch leaves, and the log's size after it.
    in_flight, start = b"", 0

    def torn_line(i, n):
        nonlocal calls
        calls += 1
        line = keys[i] + b'\t{"response": "written %d"}\n' % calls
        return line[: min(n, len(line) - 1)]

    def call():
        nonlocal calls, start
        with log.open("ab") as f:
            f.write(in_flight)
        start = log.stat().st_size
        calls += 1
        return f"answer {calls}"

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gateway, "_PREFIX_DIGITS", digits)
        mp.setattr(gateway, "_LENGTH_BITS", length_bits)
        mp.setattr(gateway, "_RECENT_MIN", recent_min)
        mp.setattr(gateway, "_LOG_INDEXES", {})
        gw, oracle = Gateway(None, config), _DictIndex(log)
        try:
            for op, *args in ops + [("call", i) for i in range(_N_TEXTS)]:
                if op == "call":
                    key = keys[args[0]]
                    want, hits = oracle.lookup(key), gw.cache_hits
                    in_flight = torn_line((args[0] + 1) % _N_TEXTS, args[1]) if args[1:] else b""
                    got = gw._cached(key, call, gateway._response, lambda r: {"response": r})
                    if want is None:
                        assert got == f"answer {calls}" and gw.cache_hits == hits
                        oracle.appended(key, start, log.stat().st_size)
                    else:
                        assert got == want["response"] and gw.cache_hits == hits + 1
                elif op == "write":
                    calls += 1
                    with log.open("ab") as f:
                        f.write(keys[args[0]] + b'\t{"response": "written %d"}\n' % calls)
                elif op == "torn":
                    with log.open("ab") as f:
                        f.write(torn_line(*args))
                elif op == "fold":
                    with gw._index.lock:
                        gw._index.fold(array("Q"), array("Q"))
                else:
                    gw.close()
                    if op == "restart":  # a new process has no index
                        mp.setattr(gateway, "_LOG_INDEXES", {})
                        oracle = _DictIndex(log)
                    gw = Gateway(None, config)
                    assert gw._index.indexed == oracle.indexed
        finally:
            gw.close()
