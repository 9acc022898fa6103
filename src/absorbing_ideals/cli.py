"""Command line interface producing deterministic JSON reports.

Subcommands:

    check-absorbing   decide whether an ideal is n-absorbing
    omega             least n making an ideal n-absorbing, up to a cap
    radical-power     radical power bound at level n for an ideal
    corollaries       colon-ideal consequences for a qualifying ideal
    trace             emit a derivation trace for a generator tuple
    verify-trace      replay a trace file and report every defect
    corpus-scan       full battery plus trace survey over a ring corpus

`COMMANDS` is the one table from a command to its runner, its help and
its options.  A plainly spelled argv is read straight from it
(`_plain_args`); any other argv, such as `-h`, an abbreviated flag or a
refused one, goes to argparse, which builds the parser of its own
command only and is imported only then.

Exit codes:

    0   the checked property holds / the run completed
    1   the property fails, a hypothesis fails (error.kind "hypothesis",
        witness in the report), or a derivation step breaks ("derivation")
    2   bad usage ("usage"): malformed spec, ideal or flags, or a file
        the user named that cannot be read or written
    3   an exhaustive scan would exceed its resource cap ("resource-limit");
        corpus-scan records that per ring and scans the other rings

Every failure of a run is reported as a JSON document with an `error`
object; `errors.ERRORS` is the one table from exception type to kind and
exit code.  An argv argparse refuses gets its usage and message on
stderr instead, nothing on stdout, and exit 2.

Reports are JSON objects with sorted keys, two-space indentation, and a
trailing newline; two runs with the same flags and seed are
byte-identical.  The `trace` subcommand writes a trace document instead
of a report; all other output goes through the same JSON form.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Optional

from .absorbing import (
    DEFAULT_MAX_TUPLES,
    DEFAULT_OMEGA_CAP,
    AbsorbingWitness,
    check_colon_chain,
    check_colons_two_absorbing,
    check_radical_power,
    is_n_absorbing,
    omega,
)
from .corpus import (
    BUILTIN_CORPUS,
    DEFAULT_TRACE_LIMIT,
    battery_report,
    run_battery,
    trace_survey,
)
from .errors import ERRORS, ParseError, ResourceLimitError, error_kind
from .machinery import (
    _INT_ONLY,
    DefaultSteps,
    _trace_length,
    default_steps,
    prove_radical_power_zero,
    verify_trace,
)
from .monomials import schedule_exponents
from .rings import DEFAULT_MAX_RING_SIZE, build_ring, split_top_level
from .ringspec import parse_ideal_text, parse_ring_spec, render_ring_spec

if TYPE_CHECKING:
    import argparse

REPORT_SCHEMA = "absorbing-report/1"
DEFAULT_IDEAL = "(0)"

_HANDLED = tuple(cls for classes, _, _ in ERRORS for cls in classes)


class _Report(dict):
    """The report a runner fills in as it goes.  `ring` is the ring it
    built, kept to render the witness of a hypothesis failure."""

    ring = None


def _failure(exc: Exception, report: _Report) -> tuple[int, dict]:
    """Exit code and error document for a run that raised `exc`.

    A verdict (exit 1) keeps the ring and ideal the report already
    names; usage and resource-limit errors report only the command.
    """
    kind, code = error_kind(type(exc))
    error = {"kind": kind, "message": str(exc)}
    if kind == "hypothesis":
        error["hypothesis"] = exc.hypothesis
        error["witness"] = _witness_payload(report.ring, exc.witness)
    payload = dict(report) if code == 1 else {
        "schema": REPORT_SCHEMA,
        "command": report["command"],
    }
    payload["error"] = error
    return code, payload


def _witness_payload(ring, witness) -> object:
    if witness is None:
        return None
    if ring is None:
        return repr(witness)
    if isinstance(witness, AbsorbingWitness):
        return witness.as_dict(ring)
    if isinstance(witness, tuple):
        return [ring.render_value(v) for v in witness]
    return ring.render_value(witness)


def _build_ring(args, report: _Report):
    if not args.ring:
        raise ParseError("a --ring spec is required")
    descriptor = parse_ring_spec(args.ring, max_size=args.max_ring_size)
    report.ring = build_ring(descriptor, max_size=args.max_ring_size)
    report["ring"] = render_ring_spec(report.ring)
    return report.ring


def _build(args, report: _Report):
    ring = _build_ring(args, report)
    ideal = parse_ideal_text(ring, args.ideal)
    report["ideal"] = ideal.text()
    return ring, ideal


def _scan_options(args) -> dict:
    return {"max_tuples": args.max_tuples, "samples": args.samples, "seed": args.seed}


def _nested(what: str, parse, *args, **kwargs):
    """`parse(*args, **kwargs)`, with input nested too deeply to parse reported as usage."""
    try:
        return parse(*args, **kwargs)
    except RecursionError:
        raise ParseError(f"{what} is nested too deeply to parse") from None


def _load_manifest(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as handle:
        data = _nested("manifest", json.load, handle)
    if isinstance(data, dict) and isinstance(data.get("rings"), list):
        specs = data["rings"]
    elif isinstance(data, list):
        specs = data
    else:
        raise ParseError("manifest must be a JSON list or an object with a 'rings' list")
    if not all(isinstance(s, str) for s in specs):
        raise ParseError("manifest ring specs must be strings")
    return specs


# ---------------------------------------------------------------------------
# subcommand bodies: each takes the parsed arguments and the report to fill
# in, and returns (exit code, JSON payload)


def _run_check_absorbing(args, report: _Report):
    ring, ideal = _build(args, report)
    if args.n < 1:
        raise ParseError("--n must be a positive integer")
    result = is_n_absorbing(ideal, args.n, **_scan_options(args))
    report["report"] = result.as_dict(ring)
    return (0 if result.holds else 1), report


def _run_omega(args, report: _Report):
    ring, ideal = _build(args, report)
    if args.cap < 1:
        raise ParseError("--cap must be a positive integer")
    report["report"] = omega(ideal, args.cap, **_scan_options(args)).as_dict(ring)
    return 0, report


def _run_radical_power(args, report: _Report):
    _, ideal = _build(args, report)
    if args.n < 1:
        raise ParseError("--n must be a positive integer")
    result = check_radical_power(ideal, args.n, **_scan_options(args))
    report["report"] = result.as_dict()
    return (0 if result.holds else 1), report


def _run_corollaries(args, report: _Report):
    ring, ideal = _build(args, report)
    colons = check_colons_two_absorbing(ideal, **_scan_options(args))
    chain = check_colon_chain(ideal, **_scan_options(args))
    report["report"] = {
        "colons_two_absorbing": colons.as_dict(ring),
        "colon_chain": chain.as_dict(ring),
    }
    return (0 if colons.holds and chain.holds else 1), report


def _run_trace(args, report: _Report):
    ring = _build_ring(args, report)
    if not args.gens:
        raise ParseError("--gens must list at least one generator")
    gen_values = [ring.parse_value(chunk) for chunk in split_top_level(args.gens)]
    trace = prove_radical_power_zero(
        ring, gen_values, short_circuit=not args.full_machinery, **_scan_options(args)
    )
    return 0, _trace_text(trace)


def _run_verify_trace(args, report: _Report):
    """Replay the trace file.  `_read_trace` gives what `json.load`
    would, without decoding a default trace's steps, and `verify_trace`
    runs every one of its checks on that document."""
    with open(args.trace_path, "r", encoding="utf-8") as handle:
        document = _nested("trace file", _read_trace, handle.read())
    result = verify_trace(
        document,
        max_ring_size=args.max_ring_size,
        max_tuples=args.max_tuples,
    )
    report.update(trace=args.trace_path, ok=result.ok, failures=list(result.failures))
    return (0 if result.ok else 1), report


def _run_corpus_scan(args, report: _Report):
    if args.samples < 1:
        raise ParseError(f"--samples must be at least 1, got {args.samples}")
    specs = _load_manifest(args.manifest) if args.manifest else list(BUILTIN_CORPUS)
    seed = 0 if args.seed is None else args.seed
    limits = {"max_ring_size": args.max_ring_size, "max_tuples": args.max_tuples}
    battery = battery_report(run_battery(specs, cap=args.cap, **limits))
    surveys = [
        trace_survey(spec, seed=seed, limit=args.samples, cap=args.cap, **limits)
        for spec in specs
    ]
    # a ring that hit a resource limit has an error entry and is not
    # audited; a failed property elsewhere still decides the exit code
    limited = any("error" in entry for entry in battery["rings"] + surveys)
    failed = any(
        not entry["ok"] for entry in battery["rings"] if "error" not in entry
    ) or any(s.get("failed", 0) for s in surveys)
    report.update(
        seed=seed,
        cap=args.cap,
        trace_limit=args.samples,
        battery=battery,
        trace_surveys=surveys,
        ok=not (limited or failed),
    )
    return (1 if failed else error_kind(ResourceLimitError)[1] if limited else 0), report


# ---------------------------------------------------------------------------
# the command table; an option is (flag, keywords of its add_argument call)

_RING = ("--ring", dict(required=True, help="ring spec, e.g. Zmod:12"))
_IDEAL = ("--ideal", dict(default=DEFAULT_IDEAL, help='generator list, e.g. "(2,3)"'))
_LIMITS = (
    ("--max-ring-size", dict(type=int, default=DEFAULT_MAX_RING_SIZE,
                             help="largest allowed element count (default %(default)s)")),
    ("--max-tuples", dict(type=int, default=DEFAULT_MAX_TUPLES, help=(
        "largest allowed exhaustive scan, in multisets (default %(default)s)"))),
)
_SEED = ("--seed", dict(type=int, default=None, help="seed for sampling"))
_OUT = ("--out", dict(default=None, help="write the JSON output to this file"))
_SAMPLES = ("--samples", dict(type=int, default=None,
                              help="randomized fallback size for scans over the cap"))
_SCAN = (*_LIMITS, _SAMPLES, _SEED, _OUT)
_CAP = ("--cap", dict(type=int, default=DEFAULT_OMEGA_CAP,
                      help="largest level to try (default %(default)s)"))

# command -> (runner, help, options in the order its --help lists them)
COMMANDS = {
    "check-absorbing": (_run_check_absorbing, "decide whether an ideal is n-absorbing", (
        _RING, _IDEAL, *_SCAN,
        ("--n", dict(type=int, required=True, help="absorbing level to test")))),
    "omega": (_run_omega, "least absorbing level up to a cap", (_RING, _IDEAL, *_SCAN, _CAP)),
    "radical-power": (_run_radical_power, "radical power bound at level n", (
        _RING, _IDEAL, *_SCAN,
        ("--n", dict(type=int, required=True, help="absorbing level to use")))),
    "corollaries": (_run_corollaries, "colon ideal consequences", (_RING, _IDEAL, *_SCAN)),
    "trace": (_run_trace, "emit a derivation trace", (
        _RING, *_SCAN,
        ("--gens", dict(required=True, help='comma separated generators, e.g. "2,4,6"')),
        ("--full-machinery", dict(action="store_true", help=(
            "run the matrix derivation even for directly zero monomials"))))),
    "verify-trace": (_run_verify_trace, "replay a trace file", (
        ("trace_path", dict(help="path to a trace JSON document")), *_LIMITS, _OUT)),
    "corpus-scan": (_run_corpus_scan, "battery and trace survey over a corpus", (
        *_LIMITS, _SEED, _OUT, _CAP,
        ("--samples", dict(type=int, default=DEFAULT_TRACE_LIMIT, help=(
            "largest trace survey per ring, in generator tuples (default %(default)s)"))),
        ("--manifest", dict(default=None, help=(
            "JSON file with a list of ring specs (default: built-in corpus)"))))),
}


_CHOICES = "{%s}" % ",".join(COMMANDS)  # the usage's command list, as argparse writes it


def _plain_args(argv: list[str]) -> Optional[SimpleNamespace]:
    """The namespace `_parser` parses `argv` into, read from `COMMANDS`
    without argparse when `argv` is plain, else None.

    Plain: the first word names a command; each of its options appears
    at most once, spelled in full, a `store_true` flag alone and any
    other with its value in the next word; its positional, if it has
    one, is there once; every required option is given; and no word read
    as a value starts with `-`.  argparse reads such an argv the same
    way: a word not starting with `-` is never an option, an exact flag
    is its option, `type` converts the value, and an option not given
    gets its default object.  A value `type` refuses, and every other
    spelling, is left to argparse, with its help and its errors.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    options = dict(COMMANDS[argv[0]][2])
    positionals = [name for name in options if not name.startswith("-")]
    given = {}
    words = iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            if not positionals:
                return None
            given[positionals.pop(0)] = word
            continue
        if word not in options or word in given:
            return None
        settings = options[word]
        if settings.get("action") == "store_true":
            given[word] = True
            continue
        value = next(words, "-")  # no value left reads as one starting with "-"
        if value.startswith("-"):
            return None
        if "type" in settings:
            try:
                value = settings["type"](value)
            except (TypeError, ValueError):
                return None
        given[word] = value
    if positionals or any(s.get("required") and f not in given for f, s in options.items()):
        return None
    namespace = SimpleNamespace(command=argv[0])
    for name, settings in options.items():
        unset = False if settings.get("action") == "store_true" else None  # as argparse
        value = given.get(name, settings.get("default", unset))
        setattr(namespace, name.lstrip("-").replace("-", "_"), value)
    return namespace


@functools.cache
def _parser(command: Optional[str]) -> argparse.ArgumentParser:
    """The parser for an argv whose first word is `command`, or with
    every command for any other argv (None); `parse_args` leaves it
    unchanged, so it is built once and kept for the process.

    argparse enters an argv's first word when it names a command, and
    the top level then only reports leftover words, under a usage that
    `_CHOICES` spells as all commands would; so only that command is
    built.  (The metavar would also name it in a missing or invalid
    command error, which such an argv cannot raise.)  argparse is
    imported here: with gettext and locale it costs a process about
    2 ms, which a plain argv does not pay.
    """
    import argparse

    description = "decision procedures and checkable traces for absorbing ideals"
    parser = argparse.ArgumentParser(prog="absorbing-ideals", description=description)
    sub = parser.add_subparsers(dest="command", required=True, metavar=command and _CHOICES)
    for name, (_, help_text, options) in COMMANDS.items():
        if command in (None, name):
            command_parser = sub.add_parser(name, help=help_text)
            for flag, settings in options:
                command_parser.add_argument(flag, **settings)
    return parser


# ---------------------------------------------------------------------------
# output


_escape = json.encoder.encode_basestring_ascii
# rows per `%` in _default_steps_text; blocks of 512 or 1,024 rows raised
# a trace-proving process's peak RSS by about 0.4 or 0.7 MB
_BLOCK_ROWS = 256


def render_json(obj) -> str:
    """Exactly `json.dumps(obj, indent=2, sort_keys=True)`, in one pass.

    With `indent` set, json.dumps cannot use its C encoder and falls
    back to a generator per nesting level; this writer appends to one
    list instead.  It tests types as json does, with isinstance, so a
    dict subclass renders as a dict; no class derives from two of str,
    dict, list or tuple, int and float, so testing containers first
    changes nothing, and True and False are tested before int, as json
    does.  Floats, non-string keys and unserializable objects go through
    `json.dumps` itself, for the same text or json's own TypeError.

    A list of exact ints is joined in one call; any other list is written
    one value at a time.  A default trace's steps are no exception: the
    `trace` command writes them from a cached text (`_trace_text`).
    """
    parts: list[str] = []
    write = parts.append

    def value(o, pad: str) -> None:  # pad: newline plus o's own indentation
        if isinstance(o, str):
            write(_escape(o))
        elif isinstance(o, dict):
            if not o:
                write("{}")
                return
            inner = pad + "  "
            separator = "{" + inner
            for k, v in sorted(o.items()):
                # json.dumps({k: 0}) is '{<key text>: 0}'
                key = _escape(k) if isinstance(k, str) else json.dumps({k: 0})[1:-4]
                write(separator + key + ": ")
                separator = "," + inner
                value(v, inner)
            write(pad + "}")
        elif isinstance(o, (list, tuple)):
            if not o:
                write("[]")
                return
            inner = pad + "  "
            if _INT_ONLY.issuperset(map(type, o)):
                write("[" + inner + ("," + inner).join(map(int.__repr__, o)) + pad + "]")
                return
            separator = "[" + inner
            for x in o:
                write(separator)
                separator = "," + inner
                value(x, inner)
            write(pad + "]")
        elif o is None:
            write("null")
        elif o is True:
            write("true")
        elif o is False:
            write("false")
        elif isinstance(o, int):
            write(int.__repr__(o))
        else:
            write(json.dumps(o))

    value(obj, "\n")
    del value  # its closure holds it: free it and `parts` now, not at a cyclic collection
    return "".join(parts)


@functools.lru_cache(maxsize=4)  # the bound of the schedule's caches
def _default_steps_text(n: int, conclusion: str) -> str:
    """The text of a level-n default trace's steps that conclude
    `conclusion`, as they stand in a trace document: a row's `%`
    template, filled per block of `_BLOCK_ROWS` rows from
    `schedule_exponents(n)`, alpha then monomial.  It is json.dumps's
    text of `default_steps(n, c)` for `conclusion` = `_escape(c)`: sorted
    keys, `%d` of an exact int is `int.__repr__`, and every `%` of the
    conclusion is doubled in the template."""
    column = "[" + "\n        %d," * (n - 1) + "\n        %d\n      ]"
    cells = ['"alpha": ' + column, '"conclusion": ' + conclusion.replace("%", "%%"),
             '"monomial": ' + column, '"rule": "direct"']
    unit = ",\n    {\n      " + ",\n      ".join(cells) + "\n    }"
    exponents = schedule_exponents(n)
    half = len(exponents) // 2
    alphas, monomials = itertools.islice(exponents, half), itertools.islice(exponents, half, None)
    rows = zip(*[alphas] * n, *[monomials] * n)
    length, full = _trace_length(n), unit * _BLOCK_ROWS
    parts = [
        (full if length - start >= _BLOCK_ROWS else unit * (length - start))
        % tuple(itertools.chain.from_iterable(itertools.islice(rows, _BLOCK_ROWS)))
        for start in range(0, length, _BLOCK_ROWS)
    ]
    parts[0] = "[" + parts[0][1:]  # each block starts with its row's ","
    parts.append("\n  ]")
    return "".join(parts)


_STEPS_KEY = ',\n  "steps": '  # the last key of a trace document, as render_json writes it
_STEP_BYTES = 64  # fewer than any default step's text: its keys and rule take 51 bytes


def _trace_text(trace) -> str:
    """Exactly `render_json(trace.to_json_dict())`.

    The prover's short-circuit branch returns its steps unbuilt, as
    `DefaultSteps(n, c)`, c the ring's zero text.  While they stay
    unbuilt they are `default_steps(n, c)`, so from level 2 on they are
    written as their cached text `_default_steps_text(n, _escape(c))`,
    and no step dict is built.  "steps" sorts last among a trace's keys:
    the rest of the document is rendered with empty steps, and the text
    goes in place of their `[]`.  Level 1 has no steps.
    """
    steps = trace.steps
    if not (type(steps) is DefaultSteps and steps.unbuilt and steps.n >= 2):
        return render_json(trace.to_json_dict())
    header = render_json(trace._json_document([]))[: -len("[]\n}")]
    return "".join((header, _default_steps_text(steps.n, _escape(steps.conclusion)), "\n}"))


def _read_trace(text: str):
    """Exactly `json.loads(text)`, which it falls back to, errors included.

    The header P before `_STEPS_KEY` is decoded alone.  If it has an
    exact-int `n` from 2 to 4 and a str `final_product` c, the first
    conclusion after the key is c followed by a monomial, as in a default
    step (a full-machinery step's is followed by its diagonal index), and
    the text goes on with `_default_steps_text` S at that level and
    conclusion, then only JSON whitespace and one `}`, the steps are
    `default_steps` instead of decoded: JSON is context-free, so the text
    parses to P's object with `"steps"` set last to `loads(S)`, and that
    is `default_steps(n, c)`.  Level 5's 11.9 MB text is not built.
    """
    cut = text.find(_STEPS_KEY)
    if cut >= 0:
        try:
            header = json.loads(text[:cut] + "\n}")
        except (ValueError, RecursionError):
            header = {}
        n, conclusion = header.get("n"), header.get("final_product")
        start = cut + len(_STEPS_KEY)
        if (
            type(n) is int
            and 2 <= n <= 4
            and type(conclusion) is str
            and len(text) - start >= _trace_length(n) * _STEP_BYTES
            and text.startswith(
                f'"conclusion": {_escape(conclusion)},\n      "monomial": ',
                text.find('"conclusion": ', start),
            )
        ):
            steps = _default_steps_text(n, _escape(conclusion))
            if text.startswith(steps, start) and text[start + len(steps):].strip(" \t\n\r") == "}":
                header["steps"] = default_steps(n, conclusion)
                return header
    return json.loads(text)


def _emit(payload, stream) -> None:
    """Write a runner's payload, a document or the text of one, and a newline."""
    stream.write(payload if isinstance(payload, str) else render_json(payload))
    stream.write("\n")


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv) or _parser(
        argv[0] if argv and argv[0] in COMMANDS else None
    ).parse_args(argv)
    report = _Report(schema=REPORT_SCHEMA, command=args.command)
    try:
        code, payload = COMMANDS[args.command][0](args, report)
    except _HANDLED as exc:
        code, payload = _failure(exc, report)
    try:
        stream = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    except OSError as exc:
        # the file cannot take the document, so stdout gets the error
        stream = sys.stdout
        code, payload = _failure(exc, report)
    _emit(payload, stream)
    if stream is not sys.stdout:
        stream.close()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
