"""Command line interface: payload shapes, exit codes, determinism."""

import argparse
import enum
import gc
import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from absorbing_ideals import (
    Ideal,
    build_ring,
    cli,
    machinery,
    parse_ring_spec,
    prove_radical_power_zero,
    radical,
)
from absorbing_ideals.cli import _Report, main, render_json
from absorbing_ideals.corpus import BUILTIN_CORPUS
from absorbing_ideals.errors import (
    HypothesisNotSatisfiedError,
    ImproperIdealError,
    InvariantViolationError,
    LemmaPreconditionError,
    ParseError,
    ResourceLimitError,
    RingBuildError,
    TraceInconsistencyError,
)
from absorbing_ideals.machinery import default_steps
from absorbing_ideals.ringspec import MAX_SPEC_DEPTH

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_check_absorbing_holds(capsys):
    code, payload = run_cli(
        capsys, "check-absorbing", "--ring", "Zmod:8", "--n", "3"
    )
    assert code == 0
    assert payload["schema"] == "absorbing-report/1"
    assert payload["command"] == "check-absorbing"
    assert payload["ring"] == "Zmod:8"
    assert payload["ideal"] == "(0)"
    assert payload["report"]["holds"] is True
    assert payload["report"]["mode"] == "exhaustive"


def test_check_absorbing_fails_with_witness(capsys):
    code, payload = run_cli(
        capsys, "check-absorbing", "--ring", "Zmod:8", "--n", "2"
    )
    assert code == 1
    assert payload["report"]["holds"] is False
    assert payload["report"]["witness"]["elements"] == ["2", "2", "2"]


def test_check_absorbing_nonzero_ideal(capsys):
    code, payload = run_cli(
        capsys,
        "check-absorbing",
        "--ring", "Zmod:12",
        "--ideal", "(4)",
        "--n", "2",
    )
    assert code == 0
    assert payload["ideal"] == "(4)"


def test_omega_payload(capsys):
    code, payload = run_cli(capsys, "omega", "--ring", "Zmod:12")
    assert code == 0
    report = payload["report"]
    assert report["omega"] == 3
    assert report["cap"] == 4
    assert set(report["levels"]) == {"1", "2", "3"}
    assert report["levels"]["3"]["holds"] is True


def test_omega_above_cap_reports_null(capsys):
    code, payload = run_cli(capsys, "omega", "--ring", "Zmod:32", "--cap", "4")
    assert code == 0
    assert payload["report"]["omega"] is None


def test_radical_power_holds(capsys):
    code, payload = run_cli(
        capsys, "radical-power", "--ring", "Zmod:8", "--n", "3"
    )
    assert code == 0
    assert payload["report"]["holds"] is True
    assert payload["report"]["radical"]["size"] == 4


def test_radical_power_hypothesis_failure(capsys):
    code, payload = run_cli(
        capsys, "radical-power", "--ring", "Zmod:8", "--n", "2"
    )
    assert code == 1
    assert payload["error"]["kind"] == "hypothesis"
    assert payload["error"]["hypothesis"] == "2-absorbing"
    assert payload["error"]["witness"]["elements"] == ["2", "2", "2"]


def test_radical_power_generators_in_canonical_order(capsys):
    code, payload = run_cli(
        capsys,
        "radical-power",
        "--ring", "Product:[Zmod:4,Zmod:3]",
        "--ideal", "((0,1))",
        "--n", "2",
    )
    assert code == 0
    assert payload["report"]["radical_power"]["generators"] == ["(0,0)", "(0,1)"]


def test_corollaries_z27(capsys):
    code, payload = run_cli(capsys, "corollaries", "--ring", "Zmod:27")
    assert code == 0
    report = payload["report"]
    assert report["colons_two_absorbing"]["holds"] is True
    assert report["colon_chain"]["holds"] is True


def test_corollaries_precondition_exit(capsys):
    code, payload = run_cli(capsys, "corollaries", "--ring", "Zmod:16")
    assert code == 1
    assert payload["error"]["hypothesis"] == "3-absorbing"


def test_trace_and_verify_round_trip(tmp_path, capsys):
    trace_file = tmp_path / "trace.json"
    code = main(
        [
            "trace",
            "--ring", "Zmod:8",
            "--gens", "2,4,6",
            "--out", str(trace_file),
        ]
    )
    assert code == 0
    capsys.readouterr()
    document = json.loads(trace_file.read_text())
    assert document["schema"] == "absorbing-trace/1"
    assert document["final_product"] == "0"
    assert document["n"] == 3

    code, payload = run_cli(capsys, "verify-trace", str(trace_file))
    assert code == 0
    assert payload["ok"] is True
    assert payload["failures"] == []


def test_verify_trace_flags_tampering(tmp_path, capsys):
    trace_file = tmp_path / "trace.json"
    main(["trace", "--ring", "Zmod:4", "--gens", "2,2", "--out", str(trace_file)])
    capsys.readouterr()
    document = json.loads(trace_file.read_text())
    document["final_product"] = "2"
    trace_file.write_text(json.dumps(document))
    code, payload = run_cli(capsys, "verify-trace", str(trace_file))
    assert code == 1
    assert payload["ok"] is False
    assert any(f["kind"] == "final-product" for f in payload["failures"])


def test_verify_trace_refuses_a_mistyped_field(tmp_path, capsys):
    trace_file = tmp_path / "trace.json"
    main(["trace", "--ring", "Zmod:8", "--gens", "2,4,6", "--out", str(trace_file)])
    capsys.readouterr()
    document = json.loads(trace_file.read_text())
    document["n"] = "3"
    trace_file.write_text(json.dumps(document))
    code, payload = run_cli(capsys, "verify-trace", str(trace_file))
    assert code == 1
    assert payload["ok"] is False
    assert [f["kind"] for f in payload["failures"]] == ["document"]


def test_verify_trace_on_a_document_that_is_not_an_object(tmp_path, capsys):
    trace_file = tmp_path / "trace.json"
    trace_file.write_text("[1, 2]")
    code, payload = run_cli(capsys, "verify-trace", str(trace_file))
    assert code == 1
    assert payload["failures"] == [
        {"step": None, "kind": "document", "detail": "trace document must be a JSON object"}
    ]


def test_trace_full_machinery_flag(tmp_path, capsys):
    trace_file = tmp_path / "trace.json"
    code = main(
        [
            "trace",
            "--ring", "Zmod:4",
            "--gens", "2,2",
            "--full-machinery",
            "--out", str(trace_file),
        ]
    )
    assert code == 0
    capsys.readouterr()
    document = json.loads(trace_file.read_text())
    rules = {step["rule"] for step in document["steps"]}
    assert "zero-diagonal" in rules


def test_trace_hypothesis_error(capsys):
    code, payload = run_cli(capsys, "trace", "--ring", "Zmod:8", "--gens", "3")
    assert code == 1
    assert payload["error"]["kind"] == "hypothesis"
    assert payload["error"]["hypothesis"] == "nilpotent-generators"


@pytest.mark.parametrize(
    "ring, gen",
    [
        ("Product:[Zmod:2,Zmod:4]", "(1,0)"),
        ("PolyQuot:{p:2,poly:[0,0,1]}", "[1,0]"),
        ("Quotient:{ring:Product:[Zmod:4,Zmod:6],gens:[(2,0)]}", "(1,2)"),
    ],
)
def test_trace_hypothesis_witness_is_rendered_on_every_ring_kind(ring, gen, capsys):
    code, payload = run_cli(capsys, "trace", "--ring", ring, "--gens", gen)
    assert code == 1
    assert payload["error"]["hypothesis"] == "nilpotent-generators"
    assert payload["error"]["witness"] == gen


def test_parse_errors_exit_2(capsys):
    code, payload = run_cli(capsys, "omega", "--ring", "Frob:9")
    assert code == 2
    assert payload["error"]["kind"] == "usage"

    code, payload = run_cli(
        capsys, "check-absorbing", "--ring", "Zmod:12", "--ideal", "(99)", "--n", "2"
    )
    assert code == 2

    code, payload = run_cli(
        capsys, "check-absorbing", "--ring", "Zmod:12", "--n", "0"
    )
    assert code == 2


def test_unit_ideal_exit_2(capsys):
    code, payload = run_cli(
        capsys, "check-absorbing", "--ring", "Zmod:12", "--ideal", "(1)", "--n", "2"
    )
    assert code == 2
    assert "proper" in payload["error"]["message"]


def test_resource_limit_exit_3(capsys):
    code, payload = run_cli(
        capsys,
        "check-absorbing",
        "--ring", "Zmod:36",
        "--n", "3",
        "--max-tuples", "10",
    )
    assert code == 3
    assert payload["error"]["kind"] == "resource-limit"


def test_trace_over_the_step_cap_exits_3(capsys):
    code, payload = run_cli(capsys, "trace", "--ring", "Zmod:2", "--gens", "0,0,0,0,0,0,0")
    assert code == 3
    assert payload == {
        "schema": "absorbing-report/1",
        "command": "trace",
        "error": {
            "kind": "resource-limit",
            "message": "derivation of 85898868 steps at n = 7 exceeds the cap 10000000",
        },
    }


def test_omega_z64_cap_6_is_exhaustive_at_default_budget(capsys):
    code, payload = run_cli(capsys, "omega", "--ring", "Zmod:64", "--cap", "6")
    assert code == 0
    report = payload["report"]
    assert report["omega"] == 6
    assert report["levels"]["6"]["mode"] == "exhaustive"


def test_zero_ideal_default_on_product_ring(capsys):
    code, payload = run_cli(
        capsys, "check-absorbing", "--ring", "Product:[Zmod:2,Zmod:2]", "--n", "2"
    )
    assert code == 0
    assert payload["ideal"] == "(0)"
    assert payload["report"]["holds"] is True


def test_trace_and_verify_on_polyquot_ring(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    code = main(
        [
            "trace",
            "--ring", "PolyQuot:{p:2,poly:[0,0,1]}",
            "--gens", "[0,1],[0,1]",
            "--out", str(trace_path),
        ]
    )
    capsys.readouterr()
    assert code == 0
    code, payload = run_cli(capsys, "verify-trace", str(trace_path))
    assert code == 0
    assert payload["ok"] is True


def test_sampled_scan_needs_seed(capsys):
    code, payload = run_cli(
        capsys,
        "check-absorbing",
        "--ring", "Zmod:36",
        "--n", "3",
        "--max-tuples", "10",
        "--samples", "100",
    )
    assert code == 2  # missing seed is a usage error

    code, payload = run_cli(
        capsys,
        "check-absorbing",
        "--ring", "Zmod:36",
        "--n", "3",
        "--max-tuples", "10",
        "--samples", "100",
        "--seed", "11",
    )
    assert code in (0, 1)
    assert payload["report"]["mode"] == "sampled"


def test_usage_error_missing_required_flag():
    with pytest.raises(SystemExit) as exc:
        main(["check-absorbing", "--ring", "Zmod:8"])
    assert exc.value.code == 2


def test_a_command_after_an_unknown_flag_still_gets_its_options(capsys):
    # argparse enters "omega", so its options must be there to take --ring
    with pytest.raises(SystemExit) as exc:
        main(["--foo", "omega", "--ring", "Zmod:8"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: --foo\n")


def test_max_ring_size_is_enforced(capsys):
    code, payload = run_cli(
        capsys, "omega", "--ring", "Zmod:100", "--max-ring-size", "50"
    )
    assert code == 2
    assert "cap" in payload["error"]["message"]


def test_corpus_scan_manifest_and_determinism(tmp_path, capsys):
    manifest = tmp_path / "rings.json"
    manifest.write_text(json.dumps(["Zmod:4", "Zmod:8", "Zmod:9"]))
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for out in (out_a, out_b):
        code = main(
            [
                "corpus-scan",
                "--manifest", str(manifest),
                "--seed", "3",
                "--samples", "25",
                "--out", str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
    payload = json.loads(out_a.read_text())
    assert payload["ok"] is True
    assert payload["seed"] == 3
    assert payload["trace_limit"] == 25
    assert [r["ring"] for r in payload["battery"]["rings"]] == [
        "Zmod:4", "Zmod:8", "Zmod:9",
    ]
    assert len(payload["trace_surveys"]) == 3
    for survey in payload["trace_surveys"]:
        assert survey["failed"] == 0


def test_corpus_scan_rejects_bad_manifest(tmp_path, capsys):
    manifest = tmp_path / "bad.json"
    manifest.write_text(json.dumps({"not-rings": []}))
    code, payload = run_cli(
        capsys, "corpus-scan", "--manifest", str(manifest)
    )
    assert code == 2
    assert payload["error"]["kind"] == "usage"


def test_corpus_scan_refuses_cap_below_one_before_any_survey(capsys, monkeypatch):
    def no_survey(*args, **kwargs):
        raise AssertionError("a trace survey ran")

    monkeypatch.setattr("absorbing_ideals.cli.trace_survey", no_survey)
    code, payload = run_cli(capsys, "corpus-scan", "--cap", "0")
    assert code == 2
    assert payload["error"] == {
        "kind": "usage",
        "message": "cap must be at least 1, got 0",
    }


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "absorbing_ideals", "omega", "--ring", "Zmod:8"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["report"]["omega"] == 3


def test_main_leaves_the_collector_policy_alone(capsys):
    # the one-shot policy belongs to __main__.run, which importing it does
    # not call; in-process callers of main, such as the benchmark's
    # workers, keep the interpreter's
    before = gc.get_threshold(), gc.get_freeze_count(), gc.isenabled()
    importlib.import_module("absorbing_ideals.__main__")
    assert main(["omega", "--ring", "Zmod:8"]) == 0
    assert (gc.get_threshold(), gc.get_freeze_count(), gc.isenabled()) == before


def test_a_plain_run_imports_no_argparse_and_the_rest_still_reach_it():
    child = (
        "import contextlib, io, sys\n"
        "from absorbing_ideals import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['omega', '--ring', 'Zmod:8'])\n"
        "print(code, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "0 []\n"), proc.stderr
    entry = [sys.executable, "-m", "absorbing_ideals"]
    helped = subprocess.run([*entry, "omega", "-h"], capture_output=True, text=True, timeout=120)
    assert helped.returncode == 0
    assert helped.stdout.startswith("usage: absorbing-ideals omega [-h] --ring RING")
    refused = subprocess.run(
        [*entry, "check-absorbing", "--ring", "Zmod:8"], capture_output=True, text=True, timeout=120
    )
    assert (refused.returncode, refused.stdout) == (2, "")
    assert refused.stderr.startswith("usage: absorbing-ideals check-absorbing [-h] --ring RING")
    assert refused.stderr.endswith("error: the following arguments are required: --n\n")


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_a_closed_stdout_ends_the_process_with_exit_2_and_no_traceback(unbuffered):
    # the n = 4 trace is about 360 KB, more than a pipe holds, so the
    # write meets the closed pipe whether stdout is buffered or not
    with subprocess.Popen(
        [sys.executable, "-m", "absorbing_ideals", "trace", "--ring", "Zmod:16", "--gens", "2,4,6,2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONUNBUFFERED=unbuffered),
    ) as proc:
        assert proc.stdout.read(10) == b'{\n  "final'
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=120) == 2
    assert stderr == b""


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_a_stdout_without_reader_ends_the_process_with_exit_2_and_no_traceback(unbuffered):
    # the pipe's read end is closed before the process starts; a buffered
    # stdout still holds the small report when its flush fails, which the
    # interpreter's last flush would report on stderr
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "absorbing_ideals", "omega", "--ring", "Zmod:8"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONUNBUFFERED=unbuffered),
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, b"")


def test_outputs_end_with_newline_and_sorted_keys(capsys):
    main(["omega", "--ring", "Zmod:8"])
    out = capsys.readouterr().out
    assert out.endswith("\n")
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_zero_sample_count_is_a_usage_error(capsys):
    # the sampled scan would otherwise report holds with no draws, though
    # 2,2,3 is a witness against the zero ideal of Z12 being 2-absorbing
    code, payload = run_cli(
        capsys,
        "check-absorbing",
        "--ring", "Zmod:12",
        "--n", "2",
        "--max-tuples", "1",
        "--samples", "0",
        "--seed", "1",
    )
    assert code == 2
    assert payload["error"]["kind"] == "usage"


def test_trace_invariant_violation_is_a_derivation_error(capsys, monkeypatch):
    import absorbing_ideals.cli as cli
    from absorbing_ideals import InvariantViolationError

    def broken(*args, **kwargs):
        raise InvariantViolationError("walk failed to stabilize")

    monkeypatch.setattr(cli, "prove_radical_power_zero", broken)
    code, payload = run_cli(capsys, "trace", "--ring", "Zmod:4", "--gens", "2,2")
    assert code == 1
    assert payload["error"] == {"kind": "derivation", "message": "walk failed to stabilize"}


def test_missing_manifest_is_a_usage_error(tmp_path, capsys):
    code, payload = run_cli(
        capsys, "corpus-scan", "--manifest", str(tmp_path / "missing.json")
    )
    assert code == 2
    assert payload["error"]["kind"] == "usage"
    assert "missing.json" in payload["error"]["message"]


def _nested_ring(depth: int) -> str:
    spec = "Zmod:2"
    for _ in range(depth):
        spec = f"Product:[{spec}]"
    return spec


@pytest.mark.parametrize("argv, what", [
    (["verify-trace", "{deep}"], "trace file"),
    (["corpus-scan", "--manifest", "{deep}"], "manifest"),
    (["omega", "--ring", _nested_ring(3000)], "ring spec"),
    (["omega", "--ring", _nested_ring(400)], "ring spec"),
    (["trace", "--ring", _nested_ring(400), "--gens", "0"], "ring spec"),
    (["omega", "--ring", _nested_ring(MAX_SPEC_DEPTH + 1)], "ring spec"),
], ids=["verify-trace", "corpus-scan-manifest", "omega-ring", "omega-ring-400", "trace-ring-400",
        "omega-ring-over-the-cap"])
def test_deeply_nested_input_is_a_usage_error(argv, what, tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    code, payload = run_cli(capsys, *(a.format(deep=deep) for a in argv))
    assert code == 2
    assert payload["error"] == {"kind": "usage", "message": f"{what} is nested too deeply to parse"}
    assert capsys.readouterr().err == ""


def _quotient_chain(depth: int) -> str:
    spec = "Zmod:4"
    for _ in range(depth):
        spec = f"Quotient:{{ring:{spec},gens:[0]}}"
    return spec


def test_a_ring_spec_nested_to_the_cap_runs_every_command(tmp_path, capsys):
    product = _nested_ring(MAX_SPEC_DEPTH).replace("Zmod:2", "Zmod:4")
    for ring, two in [
        (product, "(" * MAX_SPEC_DEPTH + "2" + ")" * MAX_SPEC_DEPTH),
        (_quotient_chain(MAX_SPEC_DEPTH), "2"),
    ]:
        code, payload = run_cli(capsys, "omega", "--ring", ring, "--cap", "3")
        assert (code, payload["ring"], payload["report"]["omega"]) == (0, ring, 2)
        trace_path = tmp_path / "trace.json"
        argv = ["trace", "--ring", ring, "--gens", f"{two},{two}", "--out", str(trace_path)]
        assert main(argv) == 0
        code, payload = run_cli(capsys, "verify-trace", str(trace_path))
        assert (code, payload["ok"]) == (0, True)


def test_unwritable_out_reports_the_error_on_stdout(tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "x.json"
    code, payload = run_cli(
        capsys, "check-absorbing", "--ring", "Zmod:12", "--n", "1", "--out", str(out)
    )
    assert code == 2
    assert payload["error"]["kind"] == "usage"
    assert not out.exists()


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_corpus_scan_refuses_samples_below_one(samples, capsys):
    code, payload = run_cli(capsys, "corpus-scan", "--samples", samples)
    assert code == 2
    assert payload["error"]["kind"] == "usage"
    assert "--samples" in payload["error"]["message"]


def _raise(exc):
    def raiser(*args, **kwargs):
        raise exc

    return raiser


_ERROR_CASES = [
    (HypothesisNotSatisfiedError, ("nilpotent-generators",), "hypothesis", 1),
    (LemmaPreconditionError, ("no zero coordinate",), "derivation", 1),
    (InvariantViolationError, ("walk failed to stabilize",), "derivation", 1),
    (TraceInconsistencyError, ("step contradicts arithmetic",), "derivation", 1),
    (ResourceLimitError, ("scan exceeds the cap",), "resource-limit", 3),
    (ParseError, ("bad text",), "usage", 2),
    (RingBuildError, ("bad ring",), "usage", 2),
    (ImproperIdealError, ("not proper",), "usage", 2),
    (ValueError, ("bad value",), "usage", 2),
    (FileNotFoundError, (2, "No such file or directory", "x.json"), "usage", 2),
]


@pytest.mark.parametrize(
    "error_class, error_args, kind, exit_code",
    _ERROR_CASES,
    ids=[case[0].__name__ for case in _ERROR_CASES],
)
@pytest.mark.parametrize(
    "argv, target",
    [
        (["trace", "--ring", "Zmod:4", "--gens", "2,2"], "prove_radical_power_zero"),
        (["corpus-scan", "--manifest", "MANIFEST"], "run_battery"),
    ],
    ids=["trace", "corpus-scan"],
)
def test_every_error_maps_to_its_kind_and_exit_code(
    argv, target, error_class, error_args, kind, exit_code, tmp_path, capsys, monkeypatch
):
    import absorbing_ideals.cli as cli

    manifest = tmp_path / "rings.json"
    manifest.write_text(json.dumps(["Zmod:4"]))
    argv = [str(manifest) if a == "MANIFEST" else a for a in argv]
    error = error_class(*error_args)
    monkeypatch.setattr(cli, target, _raise(error))
    code = main(argv)
    payload = json.loads(capsys.readouterr().out)  # exactly one document
    assert code == exit_code
    assert payload["command"] == argv[0]
    assert payload["error"]["kind"] == kind
    assert payload["error"]["message"] == str(error)


def test_parser_defaults_are_the_library_constants(monkeypatch):
    import importlib.util
    import inspect

    import absorbing_ideals.cli as cli
    from absorbing_ideals import absorbing, corpus, machinery, rings

    homes = {  # parser option -> (constant, the module that defines it)
        "max_tuples": ("DEFAULT_MAX_TUPLES", absorbing),
        "max_ring_size": ("DEFAULT_MAX_RING_SIZE", rings),
        "cap": ("DEFAULT_OMEGA_CAP", absorbing),
        "samples": ("DEFAULT_TRACE_LIMIT", corpus),
    }
    stand_ins = {}
    with monkeypatch.context() as patch:
        for option, (name, home) in homes.items():
            assert getattr(cli, name) is getattr(home, name)
            # a stand-in shows the table reads the name, not a copied literal
            stand_ins[option] = object()
            patch.setattr(home, name, stand_ins[option])
        # a fresh copy of the module, so its table is built from the stand-ins
        spec = importlib.util.find_spec("absorbing_ideals.cli")
        fresh = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(fresh)
        stand_ins["ideal"] = fresh.DEFAULT_IDEAL
        for argv, options in [
            (["check-absorbing", "--ring", "Zmod:8", "--n", "1"], ["max_tuples", "max_ring_size", "ideal"]),
            (["omega", "--ring", "Zmod:8"], ["max_tuples", "max_ring_size", "cap", "ideal"]),
            (["radical-power", "--ring", "Zmod:8", "--n", "1"], ["ideal"]),
            (["corollaries", "--ring", "Zmod:8"], ["ideal"]),
            (["trace", "--ring", "Zmod:8", "--gens", "2"], ["max_tuples", "max_ring_size"]),
            (["verify-trace", "t.json"], ["max_tuples", "max_ring_size"]),
            (["corpus-scan"], ["max_tuples", "max_ring_size", "cap", "samples"]),
        ]:
            args = fresh._parser(argv[0]).parse_args(argv)
            plain = fresh._plain_args(argv)  # the argv is plain: read without argparse
            assert vars(plain) == vars(args)
            for option in options:
                assert getattr(args, option) is stand_ins[option], (argv[0], option)
                assert getattr(plain, option) is stand_ins[option], (argv[0], option)
    # the library functions the CLI calls default to the same constants
    verify = inspect.signature(machinery.verify_trace).parameters
    assert verify["max_tuples"].default is absorbing.DEFAULT_MAX_TUPLES
    assert verify["max_ring_size"].default is rings.DEFAULT_MAX_RING_SIZE
    battery = inspect.signature(corpus.run_battery).parameters
    assert battery["max_ring_size"].default is rings.DEFAULT_MAX_RING_SIZE


# ---------------------------------------------------------------------------
# the JSON writer and the shared parser


def _json_values():
    escapes = st.text(alphabet=st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7f é€ 😀\ud800a'))
    scalars = (
        st.none()
        | st.booleans()
        | st.integers()
        | st.integers(min_value=-3, max_value=3)
        | st.floats(allow_nan=True, allow_infinity=True)
        | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300])
        | st.text()
        | escapes
    )

    def containers(children):
        str_keyed = st.dictionaries(st.text() | escapes, children, max_size=5)
        return (
            st.lists(children, max_size=5)
            | st.lists(children, max_size=5).map(tuple)
            | st.lists(st.integers() | st.booleans(), max_size=5)
            | str_keyed
            | str_keyed.map(_Report)
            | st.dictionaries(st.integers(), children, max_size=4)
            | st.dictionaries(st.floats(allow_nan=False), children, max_size=4)
        )

    return st.recursive(scalars, containers, max_leaves=30)


@settings(max_examples=300)
@given(_json_values())
def test_writer_matches_json_dumps(value):
    assert render_json(value) == json.dumps(value, indent=2, sort_keys=True)


def test_writer_leaves_no_reference_cycle():
    # the output list goes when render_json returns, not at a cyclic collection
    value = {"steps": [{"alpha": [1, 2], "rule": "direct"}] * 3, "x": [None, 1.5, "s"]}
    gc.collect()
    gc.disable()
    try:
        render_json(value)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_writer_renders_reports_and_edge_cases_like_json_dumps():
    report = _Report(schema="absorbing-report/1", command="trace")
    report["levels"] = {"1": {"holds": True, "n": 1, "witness": None}}
    for value in [
        report,
        {True: 1, False: []},
        {None: {}},
        {2: (), 10: "x"},
        {1.5: "x", -0.5: 1, math.inf: 2},
        [True, 1, False, 0],
        (1, 2, 3),
        [[], {}, ()],
        {"é\n": [" ", "😀"]},
        [math.nan, math.inf, -math.inf, 0.1],
        "plain",
        7,
        None,
    ]:
        assert render_json(value) == json.dumps(value, indent=2, sort_keys=True)
    for bad in [{"x": object()}, {(1, 2): 3}, [b"bytes"]]:
        with pytest.raises(TypeError):
            render_json(bad)


def _same_keyed_rows():
    """Lists of dicts that share one key set, with mixed cells."""
    keys = st.text(alphabet=st.sampled_from('ab"\\\né😀'), max_size=3)
    cells = st.recursive(
        st.text(max_size=4)
        | st.integers()
        | st.booleans()
        | st.floats(allow_nan=False)
        | st.none()
        | st.lists(st.integers(), min_size=1, max_size=4)
        | st.lists(st.integers() | st.booleans(), min_size=1, max_size=4)
        | st.just([])
        | st.tuples(st.integers(), st.text(max_size=2)),
        lambda children: st.dictionaries(keys, children, max_size=3)
        | st.lists(children, max_size=3),
        max_leaves=6,
    )

    def rows(key_list):
        row = st.fixed_dictionaries({k: cells for k in key_list})
        # the same keys in another insertion order
        shuffled = row.map(lambda r: dict(reversed(list(r.items()))))
        return st.lists(row | shuffled, min_size=1, max_size=5)

    return st.lists(keys, min_size=1, max_size=4, unique=True).flatmap(rows)


@settings(max_examples=100)
@given(_same_keyed_rows())
def test_writer_writes_same_keyed_rows_like_json_dumps(rows):
    for value in (rows, {"steps": rows}, [rows, rows], tuple(rows)):
        assert render_json(value) == json.dumps(value, indent=2, sort_keys=True)


def test_writer_row_path_keeps_json_order_on_edge_cases():
    report = _Report(b=1, a=[2])
    for value in [
        [{"b": 1, "a": [2]}, {"a": [3], "b": 4}],  # another insertion order
        [{"a": 1, "b": 2}, report],  # a dict subclass among plain dicts
        [report, {"a": 1, "b": 2}],
        [{"v": True, "w": [True, 1]}, {"v": 1, "w": [1, True]}],  # True beside 1
        [{"v": [1, 2]}, {"v": (1, 2)}, {"v": []}, {"v": [1.0]}],
        [{'"q"': 1, "\\": 2, "\n": 3, "é😀": 4}] * 2,  # keys that need escapes
        [{"a": 1}, {"a": 1, "b": 2}],  # other key sets
        [{"a": 1}, {"b": 1}],
        [{"a": 1}, {1: 1}],
        [{"1": 1}, {1: 1}],
        [{}, {}],
        [{"a": {"b": [{"c": 1}, {"c": 2}]}}, {"a": None}],
    ]:
        assert render_json(value) == json.dumps(value, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        render_json([{"a": 1}, {"a": object()}])


class _Level(enum.IntEnum):
    TWO = 2


class _Text(str):
    pass


# cells that are not an exact str or an exact int where one is expected,
# and int lists of another length: each sends its whole list to the general path
_ODD_CELLS = [True, 1.0, _Level.TWO, _Text("x"), [], (1,), [1, 2, 3, 4, 5], [True], [1.0], None]


@st.composite
def _uniform_columns(draw):
    """Lists of same-keyed dicts whose columns are each all exact str or
    all exact int lists of one length, sometimes with one odd cell."""
    marks = '%sd"\\\né😀\x00'
    keys = draw(st.lists(st.text(alphabet=st.sampled_from("ab" + marks), max_size=3),
                         min_size=1, max_size=4, unique=True))
    strings = st.text(alphabet=st.sampled_from("xy" + marks + "\ud800\x7f"), max_size=4)
    ints = st.integers() | st.integers(min_value=2**64) | st.integers(max_value=-(2**64))
    columns = {}
    for k in keys:
        length = draw(st.integers(min_value=0, max_value=3))
        columns[k] = strings if length == 0 else st.lists(ints, min_size=length, max_size=length)
    rows = draw(st.lists(st.fixed_dictionaries(columns), min_size=1, max_size=6))
    if draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        key = draw(st.sampled_from(keys))
        if type(row[key]) is list and draw(st.booleans()):
            row[key][draw(st.integers(0, len(row[key]) - 1))] = draw(st.sampled_from(_ODD_CELLS[:3]))
        else:
            row[key] = draw(st.sampled_from(_ODD_CELLS))
    return rows


@settings(max_examples=200)
@given(_uniform_columns())
def test_writer_writes_uniform_columns_like_json_dumps(rows):
    for value in (rows, {"steps": rows}, [rows, rows], tuple(rows)):
        assert render_json(value) == json.dumps(value, indent=2, sort_keys=True)


def test_column_path_keeps_json_text_on_edge_cases():
    block = cli._BLOCK_ROWS
    marks = ["%", "%s", "%d", "%%", "%(a)s", '"\\\n\t', "é😀", "\ud800"]
    for mark in marks:
        for value in [
            [{mark: "x", "a": [1]}] * 2,  # in a key
            [{"s": mark, "a": [1]}, {"s": mark + mark, "a": [2]}],  # in a string
        ]:
            assert render_json(value) == json.dumps(value, indent=2, sort_keys=True), mark
    big = [2**64, -(2**64) - 1, 2**200, -7, 0]
    for value in [
        [{"a": big, "b": "x"}, {"a": big[::-1], "b": "y"}],
        [{"a": [1, 2]}, {"a": [True, 2]}],  # True or 1.0 in an int column
        [{"a": [1, 2]}, {"a": [1.0, 2]}],
        [{"a": [1]}, {"a": [_Level.TWO]}],  # IntEnum and str-subclass cells
        [{"a": _Level.TWO}, {"a": 2}],
        [{"a": "x"}, {"a": _Text("y")}],
        [{"a": [1, 2]}, {"a": [1]}],  # ragged, empty and tuple cells
        [{"a": [1]}, {"a": []}],
        [{"a": []}, {"a": []}],
        [{"a": (1,)}, {"a": (2,)}],
        [{"a": [1]}, {"a": (2,)}],
        [{"a": "x"}, {"a": [1]}],
    ]:
        assert render_json(value) == json.dumps(value, indent=2, sort_keys=True), value
    for count in (1, block - 1, block, block + 1, 2 * block, 2 * block + 1):
        rows = [{"%k": f"s%d{i}", "m": [i, -i, 2**70 + i]} for i in range(count)]
        for value in (rows, {"steps": rows}):
            assert render_json(value) == json.dumps(value, indent=2, sort_keys=True), count


def _default_trace(spec: str, gens: list) -> dict:
    """A fresh default trace document, or None where the prover refuses."""
    ring = build_ring(parse_ring_spec(spec))
    try:
        return prove_radical_power_zero(ring, [ring.parse_value(g) for g in gens]).to_json_dict()
    except (HypothesisNotSatisfiedError, ResourceLimitError):
        return None


def _shapes(document: dict) -> list:
    """The trace document, its bare steps list and the steps one level deeper."""
    return [document, document["steps"], {"a": [{"steps": document["steps"]}]}]


def _assert_renders_like_json_dumps(value) -> None:
    assert render_json(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.fixture
def consulted(monkeypatch):
    """The arguments of every `cli._default_steps_text` call made from now on."""
    calls = []
    real = cli._default_steps_text
    monkeypatch.setattr(cli, "_default_steps_text", lambda *args: calls.append(args) or real(*args))
    return calls


def _steps_json(n: int, conclusion: str) -> str:
    """json.dumps's text of `default_steps(n, conclusion)` as a trace document holds it."""
    text = json.dumps({"steps": default_steps(n, conclusion)}, indent=2, sort_keys=True)
    return text[len('{\n  "steps": '):-len("\n}")]


def test_default_traces_of_the_corpus_render_like_json_dumps(consulted):
    rendered = 0
    # json.dumps of equal steps, kept per (shape, level, zero text)
    expected = {}
    for spec in BUILTIN_CORPUS:
        ring = build_ring(parse_ring_spec(spec))
        nilpotent = max(radical(Ideal.zero(ring)).element_values)
        for n in (2, 3, 4):
            document = _default_trace(spec, [ring.render_value(nilpotent)] * n)
            if document is None:
                continue
            rendered += 1
            _assert_renders_like_json_dumps(document)
            for shape, value in enumerate(_shapes(document)[1:]):
                key = (shape, n, ring.render_value(ring.zero_value))
                if key not in expected:
                    expected[key] = json.dumps(value, indent=2, sort_keys=True)
                assert render_json(value) == expected[key], (spec, n, shape)
    assert rendered >= 80
    # render_json writes default steps as any other list
    assert consulted == []


def test_default_steps_with_marks_in_their_conclusion_render_like_json_dumps(consulted):
    for mark in ["%", "%s", "%d", "%%", "%(a)s", '"\\\n\t', "é😀", "\ud800"]:
        document = _default_trace("Zmod:27", ["3", "3", "3"])
        for step in document["steps"]:
            step["conclusion"] = mark
        for value in _shapes(document):
            assert render_json(value) == json.dumps(value, indent=2, sort_keys=True), mark
        assert consulted == [], mark
        # the text the trace command writes for such steps is json's
        for n in (2, 3, 4):
            assert cli._default_steps_text(n, cli._escape(mark)) == _steps_json(n, mark), (mark, n)
        consulted.clear()


def _first_index(steps, key: str, exponent: int) -> tuple[int, int]:
    return next(
        (i, j) for i, step in enumerate(steps) for j, e in enumerate(step[key]) if e == exponent
    )


def _near_misses(steps: list) -> dict:
    """Changes to a default trace's steps that each leave them unlike any default steps."""
    def exponent(key, value, old):
        def change(steps):
            i, j = _first_index(steps, key, old)
            steps[i][key][j] = value
        return change

    def put(index, key, value):
        def change(steps):
            steps[index][key] = value
        return change

    def swap(steps):
        steps[1], steps[2] = steps[2], steps[1]

    return {
        "true exponent": exponent("monomial", True, 1),
        "float exponent": exponent("alpha", 1.0, 1),
        "IntEnum exponent": exponent("monomial", _Level.TWO, 2),
        "str-subclass conclusion": put(3, "conclusion", _Text(steps[3]["conclusion"])),
        "another conclusion": put(-1, "conclusion", "1"),
        "another rule": put(0, "rule", "zero-diagonal"),
        "extra key": put(7, "note", "x"),
        "missing key": lambda steps: steps[7].pop("rule"),
        "dict subclass": lambda steps: steps.__setitem__(4, _Report(steps[4])),
        "rows swapped": swap,
        "row dropped": lambda steps: steps.pop(10),
        "tuple column": put(5, "monomial", tuple(steps[5]["monomial"])),
    }


@pytest.mark.parametrize("spec, gens", [("Zmod:16", "2,4,6,8"), ("Zmod:27", "3,3,3")])
def test_near_default_steps_take_the_general_path(spec, gens, consulted):
    cases = _near_misses(_default_trace(spec, gens.split(","))["steps"])
    for name, change in cases.items():
        document = _default_trace(spec, gens.split(","))
        change(document["steps"])
        for value in _shapes(document):
            assert render_json(value) == json.dumps(value, indent=2, sort_keys=True), name
        assert consulted == [], name


class _StrEqualKey:
    """A key equal to a str, which json refuses as a key."""

    def __init__(self, text):
        self.text = text

    def __hash__(self):
        return hash(self.text)

    def __eq__(self, other):
        return other == self.text


def test_a_key_that_only_equals_a_step_key_is_refused_as_json_refuses_it():
    document = _default_trace("Zmod:27", ["3", "3", "3"])
    document["steps"][7] = {
        _StrEqualKey(k) if k == "rule" else k: v for k, v in document["steps"][7].items()
    }
    for value in _shapes(document):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            render_json(value)


def test_steps_of_another_level_are_refused_before_their_length_is_computed(
    monkeypatch, consulted
):
    levels = []
    real = cli._trace_length
    monkeypatch.setattr(cli, "_trace_length", lambda n: levels.append(n) or real(n))
    step = {"alpha": [1], "monomial": [1], "rule": "direct", "conclusion": "0"}
    long_alpha = dict(step, alpha=list(range(20_000)), monomial=[0] * 20_000)
    for steps in ([step], [step, step, step], [long_alpha] * 3):
        for value in (steps, {"steps": steps}):
            _assert_renders_like_json_dumps(value)
    assert levels == [] and consulted == []


def _proved(spec: str, gens: list):
    ring = build_ring(parse_ring_spec(spec))
    return prove_radical_power_zero(ring, [ring.parse_value(g) for g in gens])


def test_default_trace_text_is_built_once_per_level_indent_and_zero_text():
    # the trace command's writer builds it, and keeps the four latest texts
    cached = cli._default_steps_text
    cached.cache_clear()
    level_four = ("Zmod:16", ["2", "4", "6", "8"])
    document = _proved(*level_four).to_json_dict()
    assert len(document["steps"]) == 1785 > cli._BLOCK_ROWS

    def builds():
        return cached.cache_info().misses

    def assert_writes_like_json_dumps(spec, gens):
        trace = _proved(spec, gens)
        text = cli._trace_text(trace)  # before to_json_dict builds the steps
        assert text == json.dumps(trace.to_json_dict(), indent=2, sort_keys=True)

    _assert_renders_like_json_dumps(document)
    assert cached.cache_info().hits == builds() == 0  # render_json builds none
    assert_writes_like_json_dumps(*level_four)
    assert builds() == 1
    cli._trace_text(_proved(*level_four))
    assert_writes_like_json_dumps("Zmod:16", ["4", "4", "4", "4"])  # the same text
    assert builds() == 1 and cached.cache_info().hits == 2
    assert_writes_like_json_dumps("Product:[Zmod:4,Zmod:9]", ["(2,3)"] * 4)
    assert builds() == 2  # another zero text
    for spec, gens in [
        ("Zmod:8", ["2", "4", "6"]),
        ("Zmod:4", ["2", "2"]),
        ("Product:[Zmod:4,Zmod:3]", ["(2,0)"] * 3),
    ]:
        assert_writes_like_json_dumps(spec, gens)
    assert builds() == 5
    assert cached.cache_info().currsize == cached.cache_info().maxsize == 4
    cli._trace_text(_proved(*level_four))  # its text was the least recently used
    assert builds() == 6


def test_the_trace_command_builds_no_step(monkeypatch, capsys):
    # the prover leaves a default trace's steps unbuilt, and the writer
    # writes them from the cached text
    calls = []
    real = machinery.default_steps
    monkeypatch.setattr(machinery, "default_steps", lambda *args: calls.append(args) or real(*args))
    for spec, gens in [("Zmod:4", ["2", "2"]), ("Zmod:8", ["2", "4", "6"]),
                       ("Zmod:16", ["2", "4", "6", "8"])]:
        assert main(["trace", "--ring", spec, "--gens", ",".join(gens)]) == 0
        text = capsys.readouterr().out
        assert calls == [], spec
        document = _proved(spec, gens).to_json_dict()
        assert text == json.dumps(document, indent=2, sort_keys=True) + "\n"
        calls.clear()


def test_a_read_default_trace_is_written_from_its_steps():
    # once read, a step can have been changed, so the general writer
    # writes the steps as they are
    trace = _proved("Zmod:8", ["2", "4", "6"])
    assert trace.steps[0]["conclusion"] == "0" and not trace.steps.unbuilt
    assert cli._trace_text(trace) == json.dumps(trace.to_json_dict(), indent=2, sort_keys=True)
    trace.steps[3]["conclusion"] = "1"
    text = cli._trace_text(trace)
    assert text == json.dumps(trace.to_json_dict(), indent=2, sort_keys=True)
    assert json.loads(text)["steps"][3]["conclusion"] == "1"


def test_the_trace_command_writes_what_json_dumps_writes(tmp_path, capsys):
    # every corpus ring at every level from 1 to 4 its hypothesis holds at,
    # on stdout and with --out, and one full-machinery trace
    cases = [("Quotient:{ring:Zmod:36,gens:[18]}", ["6", "12", "6"], True)]
    for spec in BUILTIN_CORPUS:
        ring = build_ring(parse_ring_spec(spec))
        nilpotent = ring.render_value(max(radical(Ideal.zero(ring)).element_values))
        cases += [(spec, [nilpotent] * n, False) for n in (1, 2, 3, 4)]
    path = tmp_path / "trace.json"
    written = {}
    for spec, gens, full in cases:
        ring = build_ring(parse_ring_spec(spec))
        try:
            trace = prove_radical_power_zero(
                ring, [ring.parse_value(g) for g in gens], short_circuit=not full
            )
        except HypothesisNotSatisfiedError:
            continue
        expected = json.dumps(trace.to_json_dict(), indent=2, sort_keys=True) + "\n"
        argv = ["trace", "--ring", spec, "--gens", ",".join(gens)] + ["--full-machinery"] * full
        assert main(argv) == 0
        assert capsys.readouterr().out == expected, (spec, gens)
        assert main([*argv, "--out", str(path)]) == 0
        assert path.read_bytes() == expected.encode("utf-8"), (spec, gens)
        written[len(gens)] = written.get(len(gens), 0) + 1
    assert all(written.get(n, 0) >= 10 for n in (1, 2, 3, 4)), written


def test_trace_io_bench_checks_the_text_and_the_replay(capsys, monkeypatch, load_script):
    bench = load_script("bench_trace_io")
    # one timed call per layer; the first write and read, the repeated
    # ones and the replay are checked all the same
    monkeypatch.setattr(bench, "REPEATS", 1)
    src = bench.harness.label(bench.harness.DEFAULT_SRC)
    assert bench.main(["--runs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    trace = "Zmod:24 6,12,18,0"
    assert lines[0].startswith(f"run 1 on {trace}: {src} prove_ms ") and lines[0].endswith(" ok")
    assert lines[1].startswith(f"median of 1 on {trace}: {src} prove_ms ")
    assert {"render_first", "read_first", "read"} <= set(bench.LAYERS)
    for layer in bench.LAYERS:
        assert f" {layer}_ms " in " " + lines[1]
    # a first or repeated render that differs from json.dumps, a read that
    # differs from json.loads, or a failed replay makes the run exit 1
    checks = {"ok": True, "same_text": True, "same_document": True}
    report = dict.fromkeys(bench.LAYERS, [1.0])
    for check in checks:
        bad = dict(checks, **{check: False})
        monkeypatch.setattr(bench, "run_once", lambda *args, bad=bad: dict(report, **bad))
        assert bench.main(["--runs", "1"]) == 1
        assert f"{check} False" in capsys.readouterr().out


def test_import_bench_checks_the_omega_output(capsys, monkeypatch, load_script):
    bench = load_script("bench_import")
    for argv, text in [(bench.OMEGA_ARGV, bench.OMEGA_TEXT),
                       (bench.NESTED_ARGV, bench.NESTED_TEXT)]:
        assert main(list(argv[2:])) == 0
        assert capsys.readouterr().out == text
    assert bench.main(["--runs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("run 1: ") and lines[0].endswith(" ok")
    for line, start in zip(lines, ("run 1: ", "best of 1: ", "median of 1: ")):
        assert line.startswith(start)
        assert " import_ms " in line and " omega_ms " in line and " nested_ms " in line
    monkeypatch.setattr(bench, "OMEGA_TEXT", bench.OMEGA_TEXT.replace('"omega": 3', '"omega": 2'))
    assert bench.main(["--runs", "1"]) == 1
    assert capsys.readouterr().out.splitlines()[0].endswith(": OMEGA OUTPUT DIFFERS")
    monkeypatch.undo()
    monkeypatch.setattr(bench, "NESTED_TEXT", bench.NESTED_TEXT.replace('"omega": 2', '"omega": 1'))
    assert bench.main(["--runs", "1"]) == 1
    assert capsys.readouterr().out.splitlines()[0].endswith(": NESTED OUTPUT DIFFERS")


def test_one_shot_bench_checks_each_output(capsys, monkeypatch, load_script):
    bench = load_script("bench_one_shot")
    # the digests it holds are those of the outputs
    assert bench.CASES["corpus"][1] == bench.CORPUS_SCAN_SEED_7_SHA256
    for case in ("trace4", "trace5"):
        command, digest = bench.CASES[case]
        assert main(list(command)) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest
    # an output with another digest makes the run exit 1
    report = {"cpu_s": 1.0, "wall_s": 1.0, "rss_mb": 1.0, "sha256": "0"}
    monkeypatch.setattr(bench, "run_once", lambda src, *argv: report)
    monkeypatch.setattr(bench.harness, "run_child", lambda *argv: (1.0, 1.0, ""))
    assert bench.main(["--runs", "1"]) == 1
    line = capsys.readouterr().out.splitlines()[0]
    assert " corpus_rss_mb 1.000 " in line
    assert line.endswith(": corpus sha256 0 trace4 sha256 0 trace5 sha256 0")


def _passing_child_output(bench, argv) -> str:
    """stdout of a child of `bench` that passes the script's checks."""
    if bench.__name__ == "bench_corpus_scan":
        Path(argv[-1]).write_bytes(b"")  # the report, whose digest the test sets
        return ""
    if bench.__name__ == "bench_import":
        return {bench.OMEGA_ARGV: bench.OMEGA_TEXT, bench.NESTED_ARGV: bench.NESTED_TEXT}.get(argv, "1.0")
    if bench.__name__ == "bench_one_shot":  # argv is -c WRAPPER -m absorbing_ideals COMMAND
        digest = next((d for command, d in bench.CASES.values()
                       if argv[4:4 + len(command)] == command), None)
        return json.dumps({"cpu_s": 1.0, "wall_s": 1.0, "rss_mb": 1.0, "sha256": digest})
    if bench.__name__ == "bench_arith":
        report = {"size": 1, "mul_s": 1.0, "add_s": 1.0, "mismatched": 0}
        return json.dumps([report] * len(bench.RINGS))
    if bench.__name__ == "bench_scan":
        scan = [True, None, 1]
        report = {"got": scan, "expected": scan, "candidates_ok": True, "multiplied": 1, "ms": [1.0]}
        return json.dumps([report] * len(bench.cases()))
    checks = {"ok": True, "same_text": True, "same_document": True}
    return json.dumps(dict(dict.fromkeys(bench.LAYERS, [1.0]), **checks))


@pytest.mark.parametrize(
    "name",
    ["bench_arith", "bench_corpus_scan", "bench_import", "bench_one_shot", "bench_scan", "bench_trace_io"],
)
def test_bench_scripts_time_two_sources_in_turns(name, capsys, monkeypatch, load_script, tmp_path):
    bench = load_script(name)
    harness = bench.harness
    timed = []

    def child(src, *argv):
        timed.append(src)
        return 0.001, 0.001, _passing_child_output(bench, argv)

    monkeypatch.setattr(harness, "run_child", child)
    empty = hashlib.sha256(b"").hexdigest()
    monkeypatch.setattr(bench, "CORPUS_SCAN_SEED_7_SHA256", empty, raising=False)
    other = str(tmp_path / "other" / "src")
    assert bench.main(["--runs", "3", "--src", other]) == 0
    assert set(timed) == {harness.DEFAULT_SRC, other}
    here, there = harness.label(harness.DEFAULT_SRC), harness.label(other)
    lines = capsys.readouterr().out.splitlines()
    # the source each line names comes right after the first ": "
    named = [line.split(": ")[1].split()[0] for line in lines if line.startswith(("run ", "median "))]
    per_pass = [here, there, there, here, here, there] + [here, there]
    assert named == per_pass * (len(bench.TRACES) if name == "bench_trace_io" else 1)


def _command_parsers(parser) -> dict:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _exit_code(argv) -> int:
    """`main(argv)`'s exit code, argparse's exits included."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_parser_is_built_once_per_command_with_only_that_command(monkeypatch, capsys):
    import absorbing_ideals.cli as cli

    calls = []
    real = argparse.ArgumentParser.add_argument

    def counting(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    cli._parser.cache_clear()
    try:
        made = []
        for argv, code in [
            (["omega", "--ring", "Zmod:8"], 0),  # plain: read from the table
            (["omega", "--rin", "Zmod:9", "--cap", "2"], 0),  # abbreviated
            (["omega", "--ring", "Zmod:9", "--cap", "-1"], 2),  # negative: argparse takes it
            (["trace", "--ring", "Zmod:8"], 2),  # refused: --gens is missing
            (["trace", "-h"], 0),
            (["trace", "--ring", "Zmod:8", "--gens", "2,2,2"], 0),  # plain
        ]:
            assert _exit_code(argv) == code, argv
            made.append(len(calls))
            calls.clear()
        capsys.readouterr()
        # -h of the top level and of the command, and its eight options,
        # once per command; a plain argv builds no parser
        assert made == [0, 10, 0, 10, 0, 0]
        assert cli._parser.cache_info().currsize == 2
        full = cli._parser(None)
        for command in ("omega", "trace"):
            parser = cli._parser(command)
            assert list(_command_parsers(parser)) == [command]
            # leftover words are reported under the usage of every command
            assert parser.format_usage() == full.format_usage()
    finally:
        cli._parser.cache_clear()


def _argv_variants():
    """The golden argvs, then per command: its options all given, in
    order and reversed, none, each absent, repeated or moved first,
    abbreviated, `=`-joined, given odd values or none, a flag given a
    value, `-h`, `--` and an extra word."""
    golden = json.loads((FIXTURES / "cli_golden.json").read_text(encoding="utf-8"))["cases"]
    yield from (case["argv"] for case in golden)
    yield from ([], ["-h"], ["nope"], ["--foo", "omega", "--ring", "Zmod:8"])
    samples = {"--ring": "Zmod:8", "--ideal": "(2)", "--gens": "2,2"}
    for command, (_, _, options) in cli.COMMANDS.items():
        chunks = []
        for flag, settings in options:
            if not flag.startswith("-"):
                chunks.append([flag])
            elif settings.get("action") == "store_true":
                chunks.append([flag])
            else:
                chunks.append([flag, "3" if settings.get("type") is int else samples.get(flag, "x")])
        full = [word for chunk in chunks for word in chunk]
        yield from ([command, *full], [command, *(w for c in reversed(chunks) for w in c)],
                    [command])
        yield from ([command, *full, "extra"], [command, *full, "-h"], [command, "-h"],
                    [command, "--", *full], [command, *full, "--"])
        for i, (flag, _) in enumerate(options):
            rest = [word for chunk in chunks[:i] + chunks[i + 1:] for word in chunk]
            chunk = chunks[i]
            yield from ([command, *rest], [command, *full, *chunk], [command, *chunk, *rest])
            if not flag.startswith("-"):
                yield [command, *rest, "-" + flag]
                continue
            yield [command, *rest, flag[:-1], *chunk[1:]]
            if len(chunk) == 1:
                yield [command, *rest, flag, "yes"]
                continue
            yield from ([command, *rest, f"{flag}={chunk[1]}"], [command, *rest, flag])
            for odd in ("-1", "-x", "", " 3", "+3", "1_0", "1.5", "x", "\u0663", "--ring"):
                yield [command, *rest, flag, odd]


def test_plain_args_read_argvs_as_argparse_does(capsys):
    """`_plain_args` is None or argparse's namespace, and always None
    where argparse exits; the full argv of each command is plain."""
    accepted = set()
    for argv in _argv_variants():
        plain = cli._plain_args(list(argv))
        parser = cli._parser(argv[0] if argv and argv[0] in cli.COMMANDS else None)
        try:
            args = parser.parse_args(list(argv))
        except SystemExit as exc:
            assert exc.code in (0, 2), argv
            assert plain is None, argv
            continue
        finally:
            capsys.readouterr()
        if plain is not None:
            assert vars(plain) == vars(args), argv
            accepted.add(tuple(argv))
    for command, (_, _, options) in cli.COMMANDS.items():
        flags = {flag for flag, _ in options if flag.startswith("-")}
        assert any(argv[0] == command and flags <= set(argv) for argv in accepted), command
    # argparse would read a repeat as its last value; it is still left to argparse
    assert cli._plain_args(["omega", "--ring", "Zmod:8", "--ring", "Zmod:9"]) is None
    # the golden refusals are all the golden argvs left to argparse
    golden = json.loads((FIXTURES / "cli_golden.json").read_text(encoding="utf-8"))["cases"]
    left = [case["name"] for case in golden if cli._plain_args(case["argv"]) is None]
    assert left == ["check-missing-n", "verify-refuses-scan-flags"]


def _describe_parser(parser) -> dict:
    """Every action of `parser` in order, in the fields that shape its
    parsing, help and errors."""
    actions = []
    for action in parser._actions:
        row = {
            "class": type(action).__name__,
            "option_strings": list(action.option_strings),
            "dest": action.dest,
            "default": action.default,
            "type": None if action.type is None else action.type.__name__,
            "required": action.required,
            "help": action.help,
        }
        if isinstance(action, argparse._SubParsersAction):
            row["choices"] = [[a.dest, a.help] for a in action._choices_actions]
        actions.append(row)
    return {"prog": parser.prog, "description": parser.description, "actions": actions}


def test_table_built_parsers_match_the_recorded_parser():
    """`tests/fixtures/cli_parser.json` was recorded from the parser that
    built every command's options by hand, before the command table."""
    import absorbing_ideals.cli as cli

    recorded = json.loads((FIXTURES / "cli_parser.json").read_text(encoding="utf-8"))
    full = cli._parser(None)
    assert _describe_parser(full) == recorded["top"]  # its "choices" hold the command order
    assert sorted(cli.COMMANDS) == sorted(recorded["commands"])
    for name in cli.COMMANDS:
        assert _describe_parser(_command_parsers(full)[name]) == recorded["commands"][name], name
        parser = _command_parsers(cli._parser(name))[name]
        assert _describe_parser(parser) == recorded["commands"][name], name


def test_reused_parser_gives_the_outputs_of_fresh_ones(tmp_path, monkeypatch, capsys):
    import absorbing_ideals.cli as cli

    monkeypatch.chdir(tmp_path)
    # abbreviated and `=`-joined flags go through the parser; the rest are plain
    sequence = [
        ["trace", "--ring", "Zmod:8", "--gens", "2,2,2", "--full"],
        ["trace", "--ring=Zmod:8", "--gens", "2,2,2"],
        ["check-absorbing", "--ring", "Zmod:36", "--n", "3", "--max-tuples", "10",
         "--sam", "5", "--seed", "1"],
        ["check-absorbing", "--ring", "Zmod:36", "--n=3", "--max-tuples", "10"],
        ["omega", "--ring", "Zmod:12", "--ideal", "(4)", "--cap", "2"],
        ["omega", "--ring", "Zmod:12"],
        ["check-absorbing", "--ring", "Zmod:12", "--n", "1", "--out=r.json"],
        ["check-absorbing", "--rin", "Zmod:12", "--n", "1"],
    ]

    def run(argv, fresh):
        if fresh:
            cli._parser.cache_clear()
        code = main(argv)
        return code, capsys.readouterr().out

    try:
        reused = [run(argv, fresh=False) for argv in sequence]
        fresh = [run(argv, fresh=True) for argv in sequence]
    finally:
        cli._parser.cache_clear()
    assert reused == fresh
    assert reused[0][1] != reused[1][1]  # the flag did not stick
    assert reused[-1][1] and not reused[-2][1]  # nor did --out


@pytest.mark.parametrize("flags", [["--samples", "0"], ["--seed", "3"], ["--samples", "5", "--seed", "3"]])
def test_verify_trace_refuses_scan_flags(flags, tmp_path, capsys):
    trace_file = tmp_path / "trace.json"
    assert main(["trace", "--ring", "Zmod:4", "--gens", "2,2", "--out", str(trace_file)]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["verify-trace", str(trace_file), *flags])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_corpus_scan_records_a_resource_limit_per_ring(tmp_path, capsys):
    manifest = tmp_path / "rings.json"
    manifest.write_text(json.dumps(["Zmod:4", "Zmod:64"]))
    code, payload = run_cli(capsys, "corpus-scan", "--manifest", str(manifest), "--max-tuples", "5")
    assert code == 3
    assert payload["ok"] is False
    assert "error" not in payload
    small, large = payload["battery"]["rings"]
    assert small["ring"] == "Zmod:4" and small["ok"] is True and small["ideal_count"] == 3
    assert "error" not in small
    assert large["ring"] == "Zmod:64" and large["ok"] is False and large["ideals"] == []
    assert large["error"]["kind"] == "resource-limit"
    assert "samples" not in large["error"]["message"]
    assert payload["trace_surveys"][0]["verified"] == 4


def test_corpus_scan_limit_in_a_trace_survey_and_exit_precedence(tmp_path, capsys, monkeypatch):
    import absorbing_ideals.cli as cli

    manifest = tmp_path / "rings.json"
    manifest.write_text(json.dumps(["Zmod:4", "Zmod:8"]))
    # Zmod:8 needs 5 multisets to decide level 3, in the battery and in
    # its survey's omega scan
    code, payload = run_cli(capsys, "corpus-scan", "--manifest", str(manifest), "--max-tuples", "4")
    assert code == 3
    assert [("error" in s) for s in payload["trace_surveys"]] == [False, True]
    assert payload["trace_surveys"][1]["error"]["kind"] == "resource-limit"

    # a failed property elsewhere outranks the limit: exit 1
    def failing_survey(spec, **kwargs):
        return {"ring": spec, "failed": 1}

    monkeypatch.setattr(cli, "trace_survey", failing_survey)
    code, payload = run_cli(capsys, "corpus-scan", "--manifest", str(manifest), "--max-tuples", "2")
    assert code == 1
    assert payload["ok"] is False
