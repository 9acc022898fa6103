"""The trace reader of `verify-trace`: exactly `json.loads`, with a default
trace's steps built from the schedule instead of decoded."""

import json

import pytest

from absorbing_ideals import Ideal, build_ring, cli, parse_ring_spec, prove_radical_power_zero, radical
from absorbing_ideals.cli import _read_trace, main, render_json
from absorbing_ideals.corpus import BUILTIN_CORPUS
from absorbing_ideals.errors import HypothesisNotSatisfiedError, ResourceLimitError
from absorbing_ideals.machinery import _trace_length, default_steps


def _default_trace(spec: str, gens: list) -> dict:
    """A fresh default trace document, or None where the prover refuses."""
    ring = build_ring(parse_ring_spec(spec))
    try:
        return prove_radical_power_zero(ring, [ring.parse_value(g) for g in gens]).to_json_dict()
    except (HypothesisNotSatisfiedError, ResourceLimitError):
        return None


def _outcome(read, text: str):
    """What `read(text)` returns, keys in order, or what it raises."""
    try:
        document = read(text)
    except Exception as exc:  # json's own error, compared by type and message
        return type(exc), str(exc)
    return document, list(document) if isinstance(document, dict) else None


@pytest.fixture
def built(monkeypatch):
    """The (n, conclusion) of every `default_steps` call the reader makes."""
    calls = []
    real = cli.default_steps
    monkeypatch.setattr(cli, "default_steps", lambda n, c: calls.append((n, c)) or real(n, c))
    return calls


def _assert_reads_like_json(text: str, built: list, fast: bool) -> None:
    before = len(built)
    assert _outcome(_read_trace, text) == _outcome(json.loads, text)
    assert len(built) == before + fast


def _writers(document: dict) -> list:
    return [render_json(document), json.dumps(document, indent=2, sort_keys=True)]


def test_default_traces_of_the_corpus_are_read_without_decoding_their_steps(built):
    read = 0
    for spec in BUILTIN_CORPUS:
        ring = build_ring(parse_ring_spec(spec))
        nilpotent = ring.render_value(max(radical(Ideal.zero(ring)).element_values))
        for n in (2, 3, 4):
            document = _default_trace(spec, [nilpotent] * n)
            if document is None:
                continue
            for text in _writers(document):
                _assert_reads_like_json(text, built, fast=True)
                read += 1
    assert read >= 160


@pytest.mark.parametrize("mark", ["%", "%d", '"', "\\", "é😀", "\ud800", "\n"])
def test_conclusions_that_need_escaping_read_like_json(mark, built):
    document = _default_trace("Zmod:27", ["3", "3", "3"])
    document["final_product"] = mark
    for step in document["steps"]:
        step["conclusion"] = mark
    for text in _writers(document):
        _assert_reads_like_json(text, built, fast=True)
    # raw non-ASCII text is valid JSON, but not the text render_json writes
    raw = json.dumps(document, indent=2, sort_keys=True, ensure_ascii=False)
    _assert_reads_like_json(raw, built, fast=raw == render_json(document))


def _edited(change):
    """A near miss made by editing the document before it is written."""
    def edit(document):
        change(document)
        return render_json(document)
    return edit


def _retyped(old, new):
    """A near miss made by replacing text in the written document."""
    def edit(document):
        text = render_json(document)
        assert old in text
        return text.replace(old, new, 1)
    return edit


def _swap(document):
    steps = document["steps"]
    steps[1], steps[2] = steps[2], steps[1]


def _conclude(text):
    def change(document):
        for step in document["steps"]:
            step["conclusion"] = text
    return change


# name -> (the near miss, whether its steps are still read from the cache)
NEAR_MISSES = {
    "step dropped": (_edited(lambda d: d["steps"].pop(1)), False),
    "last step dropped": (_edited(lambda d: d["steps"].pop()), False),
    "steps swapped": (_edited(_swap), False),
    "final_product differs": (_edited(lambda d: d.update(final_product="1")), False),
    "conclusions differ": (_edited(_conclude("1")), False),
    "n is 4.0": (lambda d: render_json(d).replace(f'"n": {d["n"]},', f'"n": {d["n"]}.0,'), False),
    "n is true": (lambda d: render_json(d).replace(f'"n": {d["n"]},', '"n": true,'), False),
    "n is a string": (_edited(lambda d: d.update(n=str(d["n"]))), False),
    "final_product is a list": (_edited(lambda d: d.update(final_product=["0"])), False),
    "steps in the header": (_retyped(',\n  "schema"', ', "steps": [1],\n  "schema"'), True),
    "steps in the header as the key": (_retyped(',\n  "schema"', ',\n  "steps": [1],\n  "schema"'), False),
    "steps nested in a header value": (_retyped('"ring": "', '"ring": {"a": 1,\n  "steps": []},\n  "r": "'), False),
    "CRLF": (lambda d: render_json(d).replace("\n", "\r\n"), False),
    "whitespace before the last brace": (lambda d: render_json(d)[:-2] + " \t\r\n}", True),
    "whitespace after the last brace": (lambda d: render_json(d) + " \n\t\r\n", True),
    "whitespace inside the steps": (_retyped('"rule": "direct"', '"rule":  "direct"'), False),
    "whitespace before the document": (lambda d: " \n" + render_json(d), True),
    "text after the last brace": (lambda d: render_json(d) + "x", False),
    "a second brace": (lambda d: render_json(d) + "}", False),
    "a key after the steps": (lambda d: render_json(d)[:-2] + ',\n  "z": 1\n}', False),
    "truncated in the steps": (lambda d: render_json(d)[: len(render_json(d)) // 2], False),
    "truncated before the last brace": (lambda d: render_json(d)[:-1], False),
    "the newline the CLI writes": (lambda d: render_json(d) + "\n", True),
    "BOM": (lambda d: "\ufeff" + render_json(d), False),
    "a list at the top": (lambda d: "[" + render_json(d) + "]", False),
    "the bare steps": (lambda d: render_json(d["steps"]), False),
    "an empty header": (lambda d: "{" + render_json(d)[render_json(d).find(cli._STEPS_KEY):], False),
    "a header that is not JSON": (_retyped('"schema": "', '"schema": \''), False),
    "another schema": (_retyped('"absorbing-trace/1"', '"absorbing-trace/2"'), True),
}


@pytest.mark.parametrize("spec, gens", [("Zmod:16", "2,4,6,8"), ("Zmod:27", "3,3,3"), ("Zmod:4", "2,2")])
@pytest.mark.parametrize("name", NEAR_MISSES)
def test_near_misses_read_like_json(name, spec, gens, built):
    edit, fast = NEAR_MISSES[name]
    text = edit(_default_trace(spec, gens.split(",")))
    _assert_reads_like_json(text, built, fast)


def _claiming(n):
    """A level-4 default trace whose header claims level n."""
    document = _default_trace("Zmod:16", ["2", "4", "6", "8"])
    document["n"] = n
    return render_json(document)


def test_levels_outside_2_to_4_and_short_steps_build_no_text(built):
    level_four = _default_trace("Zmod:16", ["2", "4", "6", "8"])
    texts = [_claiming(n) for n in (5, 6, 1, 0, -4)]
    # as many bytes after the key as a level-5 default trace could have
    texts.append(_claiming(5)[:-1] + " " * (_trace_length(5) * cli._STEP_BYTES) + "}")
    for steps in ([], level_four["steps"][:20], default_steps(2, "0")):
        texts.append(render_json(dict(level_four, steps=steps)))
    cached = cli._default_steps_text
    cached.cache_clear()
    for text in texts:
        _assert_reads_like_json(text, built, fast=False)
    assert cached.cache_info().hits == cached.cache_info().misses == 0


def test_a_full_machinery_trace_builds_no_default_text(built):
    ring = build_ring(parse_ring_spec("Quotient:{ring:Zmod:36,gens:[18]}"))
    trace = prove_radical_power_zero(
        ring, [ring.parse_value(g) for g in ("6", "12", "6")], short_circuit=False
    )
    cached = cli._default_steps_text
    misses = cached.cache_info().misses
    for text in _writers(trace.to_json_dict()):
        _assert_reads_like_json(text, built, fast=False)
    assert cached.cache_info().misses == misses


def test_the_length_bound_is_below_every_default_steps_text():
    for n in (2, 3, 4):
        shortest = cli._default_steps_text(n, '""')
        assert len(shortest) >= _trace_length(n) * cli._STEP_BYTES


@pytest.mark.parametrize("n", [2, 3, 4])
def test_prover_and_reader_build_the_steps_json_reads_from_the_cached_text(n):
    ring = build_ring(parse_ring_spec(f"Zmod:{2 ** n}"))
    for conclusion in ("0", '%"é'):
        decoded = json.loads(cli._default_steps_text(n, cli._escape(conclusion)))
        steps = default_steps(n, conclusion)
        assert steps == decoded
        assert [list(step) for step in steps] == [list(step) for step in decoded]
    proved = prove_radical_power_zero(ring, [ring.parse_value("2")] * n).to_json_dict()["steps"]
    assert proved == json.loads(cli._default_steps_text(n, '"0"'))
    # fresh containers, as json.loads gives: editing one step edits no other
    steps = default_steps(n, "0")
    steps[0]["alpha"].append(9)
    assert all(len(step["alpha"]) == n for step in steps[1:])


def test_every_check_still_runs_on_a_trace_read_from_the_cache(tmp_path, capsys, built):
    document = _default_trace("Zmod:16", ["2", "4", "6", "8"])
    path = tmp_path / "trace.json"
    path.write_text(render_json(document), encoding="utf-8")
    assert main(["verify-trace", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    assert built == [(4, "0")]
    # the steps' bytes are unchanged, so they are read from the cache,
    # and the verifier still rebuilds the ring and re-decides the hypothesis
    for change, kind in [
        ({"generators": ["3", "4", "6", "8"]}, "nilpotency"),
        ({"ring": "Zmod:48"}, "absorbing"),
        ({"high_degree_bound": 12}, "bound"),
    ]:
        path.write_text(render_json(dict(document, **change)), encoding="utf-8")
        assert main(["verify-trace", str(path)]) == 1
        failures = json.loads(capsys.readouterr().out)["failures"]
        assert kind in {failure["kind"] for failure in failures}, change
    assert len(built) == 4
