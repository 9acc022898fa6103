"""The verdict projection that the benchmark compares against expected.json.

A projection keeps what a user relies on: `holds`, `omega`, `mode`,
witnesses, counterexamples, exit codes, the trace step schedule with
its matrices and walks, `final_product`, and the verifier's `ok` and
failure kinds.  It drops the work counts (`tuples_scanned`, the
`projective_zero` record), because a faster scan or certificate may
legitimately change them without changing any verdict.
"""

from __future__ import annotations

import hashlib
import json

WORK_COUNT_KEYS = frozenset({"tuples_scanned", "projective_zero"})
TRACE_KEYS = ("schema", "ring", "n", "high_degree_bound", "final_product")
STEP_KEYS = (
    "alpha",
    "monomial",
    "rule",
    "conclusion",
    "matrix",
    "j_sequence",
    "diagonal_index",
)


def strip_work_counts(value):
    if isinstance(value, dict):
        return {
            k: strip_work_counts(v) for k, v in value.items() if k not in WORK_COUNT_KEYS
        }
    if isinstance(value, list):
        return [strip_work_counts(v) for v in value]
    return value


def project(kind: str, code, payload: dict) -> dict:
    """Projection of one job's outcome; `kind` is report, trace, verify or audit.

    Trace generators are left out: they echo the input and are checked
    on their own, so one expected schedule serves every drawn tuple.
    """
    if kind == "audit":
        return strip_work_counts(payload)
    if kind == "verify":
        kinds = [f.get("kind") for f in payload.get("failures", [])]
        return {"exit": code, "ok": payload.get("ok"), "kinds": kinds}
    if kind == "trace" and code == 0:
        trace = {k: payload.get(k) for k in TRACE_KEYS}
        trace["steps"] = [
            {k: step[k] for k in STEP_KEYS if k in step} for step in payload["steps"]
        ]
        return {"exit": code, "trace": trace}
    return {"exit": code, "payload": strip_work_counts(payload)}


def summary(kind: str, code, payload: dict) -> dict:
    """A few readable fields of the projection, kept beside its digest."""
    if kind == "audit":
        return {"omega": payload.get("omega"), "ok": payload.get("ok")}
    if kind == "verify":
        return project(kind, code, payload)
    if kind == "trace" and code == 0:
        return {"exit": code, "steps": len(payload["steps"])}
    report = payload.get("report", {})
    out = {"exit": code}
    for key in ("holds", "omega"):
        if key in report:
            out[key] = report[key]
    if "error" in payload:
        out["error"] = payload["error"].get("kind")
    return out


def digest(projection) -> str:
    text = json.dumps(projection, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]
