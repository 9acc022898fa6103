"""Command line interface producing deterministic JSON reports.

Subcommands:

    check-absorbing   decide whether an ideal is n-absorbing
    omega             least n making an ideal n-absorbing, up to a cap
    radical-power     radical power bound at level n for an ideal
    corollaries       colon-ideal consequences for a qualifying ideal
    trace             emit a derivation trace for a generator tuple
    verify-trace      replay a trace file and report every defect
    corpus-scan       full battery plus trace survey over a ring corpus

Exit codes:

    0   the checked property holds / the run completed
    1   the property fails or a precondition fails (witness in the report)
    2   bad usage: malformed spec, ideal, flags, or input files
    3   an exhaustive scan would exceed its resource cap

Reports are JSON objects with sorted keys, two-space indentation, and a
trailing newline; two runs with the same flags and seed are
byte-identical.  The `trace` subcommand writes a trace document instead
of a report; all other output goes through the same JSON form.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Optional

from .absorbing import (
    AbsorbingWitness,
    check_colon_chain,
    check_colons_two_absorbing,
    check_radical_power,
    is_n_absorbing,
    omega,
)
from .corpus import (
    BUILTIN_CORPUS,
    battery_report,
    run_battery,
    trace_survey,
)
from .errors import (
    HypothesisNotSatisfiedError,
    ImproperIdealError,
    InvariantViolationError,
    LemmaPreconditionError,
    ParseError,
    ResourceLimitError,
    RingBuildError,
    TraceInconsistencyError,
)
from .machinery import prove_radical_power_zero, verify_trace
from .rings import DEFAULT_MAX_RING_SIZE, build_ring, split_top_level
from .ringspec import parse_ideal_text, parse_ring_spec, render_ring_spec

REPORT_SCHEMA = "absorbing-report/1"
DEFAULT_MAX_TUPLES = 10**8
DEFAULT_CORPUS_SAMPLES = 200


@dataclass
class CommandConfig:
    """All knobs for one invocation, independent of argparse."""

    command: str
    ring: Optional[str] = None
    ideal: str = "(0)"
    n: Optional[int] = None
    cap: int = 4
    gens: Optional[str] = None
    seed: Optional[int] = None
    samples: Optional[int] = None
    max_ring_size: int = DEFAULT_MAX_RING_SIZE
    max_tuples: int = DEFAULT_MAX_TUPLES
    out: Optional[str] = None
    manifest: Optional[str] = None
    full_machinery: bool = False
    trace_path: Optional[str] = None


def _build_ring(config: CommandConfig):
    if not config.ring:
        raise ParseError("a --ring spec is required")
    descriptor = parse_ring_spec(config.ring, max_size=config.max_ring_size)
    return build_ring(descriptor, max_size=config.max_ring_size)


def _build(config: CommandConfig):
    ring = _build_ring(config)
    return ring, parse_ideal_text(ring, config.ideal)


def _scan_options(config: CommandConfig) -> dict:
    return {
        "max_tuples": config.max_tuples,
        "samples": config.samples,
        "seed": config.seed,
    }


def _witness_payload(ring, witness) -> object:
    if witness is None:
        return None
    if isinstance(witness, AbsorbingWitness):
        return witness.as_dict(ring)
    if isinstance(witness, tuple):
        return [ring.render_value(v) for v in witness]
    try:
        return ring.render_value(witness)
    except Exception:
        return repr(witness)


def _base_report(config: CommandConfig, ring, ideal=None) -> dict:
    report = {
        "schema": REPORT_SCHEMA,
        "command": config.command,
        "ring": render_ring_spec(ring.descriptor),
    }
    if ideal is not None:
        report["ideal"] = ideal.text()
    return report


def _load_manifest(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
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
# subcommand bodies


def _run_check_absorbing(config: CommandConfig):
    ring, ideal = _build(config)
    if config.n is None or config.n < 1:
        raise ParseError("--n must be a positive integer")
    report = _base_report(config, ring, ideal)
    try:
        result = is_n_absorbing(ideal, config.n, **_scan_options(config))
    except HypothesisNotSatisfiedError as exc:
        report["error"] = {
            "kind": "hypothesis",
            "hypothesis": exc.hypothesis,
            "message": str(exc),
            "witness": _witness_payload(ring, exc.witness),
        }
        return 1, report
    report["report"] = result.as_dict(ring)
    return (0 if result.holds else 1), report


def _run_omega(config: CommandConfig):
    ring, ideal = _build(config)
    if config.cap < 1:
        raise ParseError("--cap must be a positive integer")
    result = omega(ideal, config.cap, **_scan_options(config))
    report = _base_report(config, ring, ideal)
    report["report"] = result.as_dict(ring)
    return 0, report


def _run_radical_power(config: CommandConfig):
    ring, ideal = _build(config)
    if config.n is None or config.n < 1:
        raise ParseError("--n must be a positive integer")
    report = _base_report(config, ring, ideal)
    try:
        result = check_radical_power(ideal, config.n, **_scan_options(config))
    except HypothesisNotSatisfiedError as exc:
        report["error"] = {
            "kind": "hypothesis",
            "hypothesis": exc.hypothesis,
            "message": str(exc),
            "witness": _witness_payload(ring, exc.witness),
        }
        return 1, report
    report["report"] = result.as_dict()
    return (0 if result.holds else 1), report


def _run_corollaries(config: CommandConfig):
    ring, ideal = _build(config)
    report = _base_report(config, ring, ideal)
    try:
        colons = check_colons_two_absorbing(ideal, **_scan_options(config))
        chain = check_colon_chain(ideal, **_scan_options(config))
    except HypothesisNotSatisfiedError as exc:
        report["error"] = {
            "kind": "hypothesis",
            "hypothesis": exc.hypothesis,
            "message": str(exc),
            "witness": _witness_payload(ring, exc.witness),
        }
        return 1, report
    report["report"] = {
        "colons_two_absorbing": colons.as_dict(ring),
        "colon_chain": chain.as_dict(ring),
    }
    return (0 if colons.holds and chain.holds else 1), report


def _run_trace(config: CommandConfig):
    ring = _build_ring(config)
    if not config.gens:
        raise ParseError("--gens must list at least one generator")
    try:
        gen_values = [
            ring.parse_value(chunk) for chunk in split_top_level(config.gens)
        ]
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    report = _base_report(config, ring)
    try:
        trace = prove_radical_power_zero(
            ring,
            gen_values,
            short_circuit=not config.full_machinery,
            max_tuples=config.max_tuples,
            samples=config.samples,
            seed=config.seed,
        )
    except HypothesisNotSatisfiedError as exc:
        report["error"] = {
            "kind": "hypothesis",
            "hypothesis": exc.hypothesis,
            "message": str(exc),
            "witness": _witness_payload(ring, exc.witness),
        }
        return 1, report
    except (LemmaPreconditionError, InvariantViolationError, TraceInconsistencyError) as exc:
        report["error"] = {"kind": "derivation", "message": str(exc)}
        return 1, report
    return 0, trace.to_json_dict()


def _run_verify_trace(config: CommandConfig):
    if not config.trace_path:
        raise ParseError("a trace file path is required")
    try:
        with open(config.trace_path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read trace file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"trace file is not valid JSON: {exc}") from None
    result = verify_trace(
        document,
        max_ring_size=config.max_ring_size,
        max_tuples=config.max_tuples,
    )
    report = {
        "schema": REPORT_SCHEMA,
        "command": config.command,
        "trace": config.trace_path,
        "ok": result.ok,
        "failures": list(result.failures),
    }
    return (0 if result.ok else 1), report


def _run_corpus_scan(config: CommandConfig):
    specs = _load_manifest(config.manifest) if config.manifest else list(BUILTIN_CORPUS)
    seed = 0 if config.seed is None else config.seed
    limit = DEFAULT_CORPUS_SAMPLES if config.samples is None else config.samples
    audits = run_battery(
        specs,
        cap=config.cap,
        max_ring_size=config.max_ring_size,
        max_tuples=config.max_tuples,
    )
    battery = battery_report(audits)
    surveys = [
        trace_survey(
            spec,
            seed=seed,
            limit=limit,
            cap=config.cap,
            max_ring_size=config.max_ring_size,
            max_tuples=config.max_tuples,
        )
        for spec in specs
    ]
    surveys_ok = all(s.get("failed", 0) == 0 for s in surveys)
    report = {
        "schema": REPORT_SCHEMA,
        "command": config.command,
        "seed": seed,
        "cap": config.cap,
        "trace_limit": limit,
        "battery": battery,
        "trace_surveys": surveys,
        "ok": battery["ok"] and surveys_ok,
    }
    return (0 if report["ok"] else 1), report


_RUNNERS = {
    "check-absorbing": _run_check_absorbing,
    "omega": _run_omega,
    "radical-power": _run_radical_power,
    "corollaries": _run_corollaries,
    "trace": _run_trace,
    "verify-trace": _run_verify_trace,
    "corpus-scan": _run_corpus_scan,
}


def execute(config: CommandConfig):
    """Run one command; returns (exit code, JSON payload)."""
    runner = _RUNNERS.get(config.command)
    if runner is None:
        raise ParseError(f"unknown command {config.command!r}")
    return runner(config)


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser: argparse.ArgumentParser, *, ring: bool) -> None:
    if ring:
        parser.add_argument("--ring", required=True, help="ring spec, e.g. Zmod:12")
    parser.add_argument(
        "--max-ring-size",
        type=int,
        default=DEFAULT_MAX_RING_SIZE,
        help="largest allowed element count (default %(default)s)",
    )
    parser.add_argument(
        "--max-tuples",
        type=int,
        default=DEFAULT_MAX_TUPLES,
        help="largest allowed exhaustive scan, in multisets (default %(default)s)",
    )
    parser.add_argument(
        "--samples",
        type=int,
        default=None,
        help="randomized fallback size for scans over the cap",
    )
    parser.add_argument("--seed", type=int, default=None, help="seed for sampling")
    parser.add_argument("--out", default=None, help="write the JSON output to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="absorbing-ideals",
        description="decision procedures and checkable traces for absorbing ideals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-absorbing", help="decide whether an ideal is n-absorbing")
    _add_common(p, ring=True)
    p.add_argument("--ideal", default="(0)", help='generator list, e.g. "(2,3)"')
    p.add_argument("--n", type=int, required=True, help="absorbing level to test")

    p = sub.add_parser("omega", help="least absorbing level up to a cap")
    _add_common(p, ring=True)
    p.add_argument("--ideal", default="(0)", help='generator list, e.g. "(2,3)"')
    p.add_argument("--cap", type=int, default=4, help="largest level to try (default 4)")

    p = sub.add_parser("radical-power", help="radical power bound at level n")
    _add_common(p, ring=True)
    p.add_argument("--ideal", default="(0)", help='generator list, e.g. "(2,3)"')
    p.add_argument("--n", type=int, required=True, help="absorbing level to use")

    p = sub.add_parser("corollaries", help="colon ideal consequences")
    _add_common(p, ring=True)
    p.add_argument("--ideal", default="(0)", help='generator list, e.g. "(2,3)"')

    p = sub.add_parser("trace", help="emit a derivation trace")
    _add_common(p, ring=True)
    p.add_argument(
        "--gens",
        required=True,
        help='comma separated generators, e.g. "2,4,6"',
    )
    p.add_argument(
        "--full-machinery",
        action="store_true",
        help="run the matrix derivation even for directly zero monomials",
    )

    p = sub.add_parser("verify-trace", help="replay a trace file")
    p.add_argument("trace_path", help="path to a trace JSON document")
    _add_common(p, ring=False)

    p = sub.add_parser("corpus-scan", help="battery and trace survey over a corpus")
    _add_common(p, ring=False)
    p.add_argument("--cap", type=int, default=4, help="largest level to try (default 4)")
    p.add_argument(
        "--manifest",
        default=None,
        help="JSON file with a list of ring specs (default: built-in corpus)",
    )

    return parser


def config_from_args(args: argparse.Namespace) -> CommandConfig:
    return CommandConfig(
        command=args.command,
        ring=getattr(args, "ring", None),
        ideal=getattr(args, "ideal", "(0)"),
        n=getattr(args, "n", None),
        cap=getattr(args, "cap", 4),
        gens=getattr(args, "gens", None),
        seed=args.seed,
        samples=args.samples,
        max_ring_size=args.max_ring_size,
        max_tuples=args.max_tuples,
        out=args.out,
        manifest=getattr(args, "manifest", None),
        full_machinery=getattr(args, "full_machinery", False),
        trace_path=getattr(args, "trace_path", None),
    )


def _emit(payload: dict, out: Optional[str]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = config_from_args(args)
    try:
        code, payload = execute(config)
    except HypothesisNotSatisfiedError as exc:
        _emit(
            {
                "schema": REPORT_SCHEMA,
                "command": config.command,
                "error": {
                    "kind": "hypothesis",
                    "hypothesis": exc.hypothesis,
                    "message": str(exc),
                },
            },
            config.out,
        )
        return 1
    except (ParseError, RingBuildError, ImproperIdealError) as exc:
        _emit(
            {
                "schema": REPORT_SCHEMA,
                "command": config.command,
                "error": {"kind": "usage", "message": str(exc)},
            },
            config.out,
        )
        return 2
    except ValueError as exc:
        _emit(
            {
                "schema": REPORT_SCHEMA,
                "command": config.command,
                "error": {"kind": "usage", "message": str(exc)},
            },
            config.out,
        )
        return 2
    except ResourceLimitError as exc:
        _emit(
            {
                "schema": REPORT_SCHEMA,
                "command": config.command,
                "error": {"kind": "resource-limit", "message": str(exc)},
            },
            config.out,
        )
        return 3
    _emit(payload, config.out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
