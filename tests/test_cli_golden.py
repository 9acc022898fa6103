"""Golden CLI outputs: stdout and exit code of fixed argvs, byte for byte.

`fixtures/cli_golden.json` lists cases in order.  Each has an `argv`,
the files it reads (literal text, or `{"stdout_of": NAME}` for the
output of an earlier case), the exit code, and stdout itself or, for
long traces, its SHA-256.  A case with `out_file` writes its report to a
file instead.  All cases run in one process, so later ones also run on
the parser the earlier ones left behind.

`fixtures/lemma_survey_golden.json` does the same for
`scripts/lemma_survey.py`: each case is an argv, its exit code and its
stdout, replayed in a fresh interpreter.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from absorbing_ideals.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
CASES = json.loads((FIXTURES / "cli_golden.json").read_text())["cases"]
SURVEY_CASES = json.loads((FIXTURES / "lemma_survey_golden.json").read_text())["cases"]
LEMMA_SURVEY = Path(__file__).parent.parent / "scripts" / "lemma_survey.py"


def _run(argv, capsys):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse refusals
        code = exc.code
    return code, capsys.readouterr().out


def test_golden_outputs_are_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    stdout_of = {}
    mismatches = []
    for case in CASES:
        for name, text in case.get("files", {}).items():
            if isinstance(text, dict):
                text = stdout_of[text["stdout_of"]]
            (tmp_path / name).write_text(text, encoding="utf-8")
        code, out = _run(case["argv"], capsys)
        stdout_of[case["name"]] = out
        if "stdout" in case:
            same_out = out == case["stdout"]
        else:
            same_out = hashlib.sha256(out.encode()).hexdigest() == case["stdout_sha256"]
        if "out_file" in case:
            written = tmp_path / case["argv"][case["argv"].index("--out") + 1]
            same_out = same_out and written.read_text(encoding="utf-8") == case["out_file"]
            written.unlink()
        if code != case["exit"] or not same_out:
            mismatches.append(case["name"])
    assert mismatches == []


def test_golden_cases_cover_every_command_and_error_kind():
    commands = {case["argv"][0] for case in CASES}
    assert commands == {
        "check-absorbing", "omega", "radical-power", "corollaries",
        "trace", "verify-trace", "corpus-scan",
    }
    kinds = set()
    for case in CASES:
        if case.get("stdout", "").startswith("{"):
            kinds.add(json.loads(case["stdout"]).get("error", {}).get("kind"))
    assert {"usage", "hypothesis", "resource-limit"} <= kinds
    assert {case["exit"] for case in CASES} == {0, 1, 2, 3}
    full = next(c for c in CASES if "--full-machinery" in c["argv"])
    assert any(c.get("files", {}).get("full.json") == {"stdout_of": full["name"]} for c in CASES)


@pytest.mark.parametrize("name", ["trace-polyquot-full"])
def test_full_machinery_golden_trace_has_zero_diagonal_steps(name, tmp_path, monkeypatch, capsys):
    case = next(c for c in CASES if c["name"] == name)
    monkeypatch.chdir(tmp_path)
    code, out = _run(case["argv"], capsys)
    assert code == 0
    assert any(step["rule"] == "zero-diagonal" for step in json.loads(out)["steps"])


@pytest.mark.parametrize("case", SURVEY_CASES, ids=lambda case: " ".join(case["argv"]))
def test_lemma_survey_output_is_byte_identical(case):
    # the second case samples matrices, drawing entries from iter_values
    done = subprocess.run(
        [sys.executable, str(LEMMA_SURVEY), *case["argv"]],
        capture_output=True, text=True, timeout=300,
    )
    assert (done.returncode, done.stdout) == (case["exit"], case["stdout"])


def test_lemma_survey_refuses_a_sample_size_below_1():
    done = subprocess.run(
        [sys.executable, str(LEMMA_SURVEY), "--rings", "Zmod:4", "--sizes", "2",
         "--feasibility", "10", "--sample-size", "-3"],
        capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert "the sample size must be at least 1, got -3" in done.stderr
