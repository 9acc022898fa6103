"""Single-field mutations of four proved traces, replayed by the verifier.

Each mutation changes one field of one trace document: an exponent set
to e+1, e-1, -1, true or 2.0, a changed `conclusion` or `rule`, a
deleted key, two neighbouring steps swapped, or one header field
changed or deleted.  `fixtures/mutation_sweep.json` holds the failure
list `verify_trace` gave for each mutation: for the two Zmod traces
when the verifier still evaluated steps through a per-trace power
table, and for the Quotient and Product traces before ring products
were memoised.  A faster replay must report exactly the same failures,
in the same order.  The one recorded change since: an alpha entry of
2.0 fails as `step-shape` where it used to pass.
"""

import copy
import functools
import json
import re
from pathlib import Path

from absorbing_ideals import build_ring, parse_ring_spec, prove_radical_power_zero, verify_trace

FIXTURE = Path(__file__).parent / "fixtures" / "mutation_sweep.json"

# name: (ring, generators, full machinery, mutated steps, header mutated)
TRACES = {
    "Zmod:8 2,4,6 full": ("Zmod:8", ("2", "4", "6"), True, (0, 37, 73), True),
    "Zmod:16 2,4,6,8": ("Zmod:16", ("2", "4", "6", "8"), False, (0, 900, 1784), False),
    "Quotient:{ring:Zmod:36,gens:[18]} 6,12,6 full": (
        "Quotient:{ring:Zmod:36,gens:[18]}", ("6", "12", "6"), True, (0, 37, 73), True
    ),
    "Product:[Zmod:4,Zmod:3] (2,0),(2,0),(0,0)": (
        "Product:[Zmod:4,Zmod:3]", ("(2,0)", "(2,0)", "(0,0)"), False, (0, 37, 73), False
    ),
}

_HEADER_TEXT = {
    "schema": "absorbing-trace/2",
    "ring": "Zmod:16",
    "final_product": "1",
}


@functools.cache
def _document(spec, gens, full):
    """The proved trace as a JSON document, shared: mutations copy it."""
    ring = build_ring(parse_ring_spec(spec))
    trace = prove_radical_power_zero(
        ring, [ring.parse_value(g) for g in gens], short_circuit=not full
    )
    return json.loads(json.dumps(trace.to_json_dict()))


def _int_mutations(e):
    return [e + 1, *([e - 1] if e else []), -1, True, 2.0]  # e - 1 is -1 at e = 0


def _step_mutations(steps, index):
    """(label, new steps list) for every single-field change of one step."""
    step = steps[index]

    def replaced(new_step):
        out = list(steps)
        out[index] = new_step
        return out

    for key in ("alpha", "monomial"):
        for position, e in enumerate(step[key]):
            for new in _int_mutations(e):
                changed = copy.deepcopy(step)
                changed[key][position] = new
                yield f"{key}[{position}]={json.dumps(new)}", replaced(changed)
    other_rule = "direct" if step["rule"] == "zero-diagonal" else "zero-diagonal"
    for key, new in (("conclusion", "1"), ("rule", other_rule)):
        yield f"{key}={json.dumps(new)}", replaced({**step, key: new})
    for key in sorted(step):
        yield f"del {key}", replaced({k: v for k, v in step.items() if k != key})
    other = index + 1 if index + 1 < len(steps) else index - 1
    swapped = list(steps)
    swapped[index], swapped[other] = swapped[other], swapped[index]
    yield f"swap {other}", swapped


def _header_mutations(document):
    for key in sorted(document):
        if key == "steps":
            continue
        value = document[key]
        if type(value) is int:
            news = _int_mutations(value)
        elif key == "generators":
            news = [value[:p] + ["1"] + value[p + 1:] for p in range(len(value))]
        else:
            news = [_HEADER_TEXT[key]]
        for new in news:
            yield f"{key}={json.dumps(new)}", {**document, key: new}
        yield f"del {key}", {k: v for k, v in document.items() if k != key}


def mutations():
    """(name, mutated document) for every mutation of the sweep, in order."""
    for trace_name, (spec, gens, full, indices, header) in TRACES.items():
        document = _document(spec, gens, full)
        for index in indices:
            for label, steps in _step_mutations(document["steps"], index):
                yield f"{trace_name} / step {index} / {label}", {**document, "steps": steps}
        if header:
            for label, mutated in _header_mutations(document):
                yield f"{trace_name} / header / {label}", mutated


def sweep() -> dict:
    """Mutation name -> its failures as [step, kind, detail] lists."""
    return {
        name: [[f["step"], f["kind"], f["detail"]] for f in verify_trace(mutated).failures]
        for name, mutated in mutations()
    }


def test_every_mutation_fails_as_recorded():
    recorded = json.loads(FIXTURE.read_text())
    assert sweep() == recorded


def test_only_mutations_that_keep_the_step_equal_pass():
    recorded = json.loads(FIXTURE.read_text())
    names = [name for name, _ in mutations()]
    assert len(set(names)) == len(names) == len(recorded) > 250
    for trace_name, (spec, gens, full, _, _) in TRACES.items():
        assert any(name.startswith(trace_name) for name in recorded)
        steps = _document(spec, gens, full)["steps"]
        for name, failures in recorded.items():
            if failures or not name.startswith(trace_name):
                continue
            # a zero-diagonal step relabelled `direct` is still a valid
            # step, and `true` counts as 1
            index, label = re.fullmatch(r".* / step (\d+) / (.*)", name).groups()
            if label == 'rule="direct"':
                continue
            key, position, new = re.fullmatch(r"(\w+)\[(\d+)\]=(.*)", label).groups()
            assert steps[int(index)][key][int(position)] == json.loads(new), name
