"""Text form of ring descriptors, as used on the command line.

Grammar (whitespace is allowed around every token):

    spec     = "Zmod:" INT
             | "PolyQuot:" "{" "p:" INT "," "poly:" "[" INT ("," INT)* "]" "}"
             | "Product:" "[" spec ("," spec)* "]"
             | "Quotient:" "{" "ring:" spec "," "gens:" "[" element* "]" "}"

Polynomial coefficients run from the constant term upward.  Quotient
generators are written in the element syntax of the base ring, e.g.
plain residues for Zmod, "[c0,c1]" for polynomial rings, "(a,b)" for
products.  Parsing also validates the descriptor, so a spec that parses
satisfies all structural constraints including the size cap.  It builds
only each quotient's base ring, once per parse, to read its generators;
`build_ring` then builds the ring itself, and refuses a quotient by the
unit ideal.
A spec nested more than `MAX_SPEC_DEPTH` levels deep is refused as it is
read, so the ring's building and rendering recurse far less deeply than
Python allows.
"""

from __future__ import annotations

from .errors import ParseError
from .ideals import Ideal
from .rings import (
    DEFAULT_MAX_RING_SIZE,
    PolyQuot,
    Product,
    Quotient,
    Ring,
    RingDescriptor,
    ZMod,
    _build_valid,
    split_top_level,
    validate_descriptor,
)

MAX_SPEC_DEPTH = 100  # Product and Quotient levels around the innermost spec


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def expect(self, literal: str) -> None:
        self.skip_ws()
        if not self.text.startswith(literal, self.pos):
            raise ParseError(f"expected {literal!r}", position=self.pos)
        self.pos += len(literal)

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a name", position=start)
        return self.text[start:self.pos]

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            raise ParseError("expected an integer", position=start)
        return int(self.text[start:self.pos])

    def chunk_until(self, stops: str) -> str:
        """Raw text up to the next top-level character from `stops`."""
        self.skip_ws()
        start = self.pos
        depth = 0
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in "([{":
                depth += 1
            elif ch in ")]}":
                if depth == 0:
                    break
                depth -= 1
            elif ch in stops and depth == 0:
                break
            self.pos += 1
        chunk = self.text[start:self.pos].strip()
        if not chunk:
            raise ParseError("expected an element", position=start)
        return chunk

    def peek_is(self, literal: str) -> bool:
        self.skip_ws()
        return self.text.startswith(literal, self.pos)


def _parse_spec(cursor: _Cursor, max_size: int, built: dict, depth: int = 0) -> RingDescriptor:
    if depth > MAX_SPEC_DEPTH:
        raise ParseError("ring spec is nested too deeply to parse")
    start = cursor.pos
    kind = cursor.word()
    cursor.expect(":")
    if kind == "Zmod":
        return ZMod(cursor.integer())
    if kind == "PolyQuot":
        cursor.expect("{")
        cursor.expect("p")
        cursor.expect(":")
        p = cursor.integer()
        cursor.expect(",")
        cursor.expect("poly")
        cursor.expect(":")
        cursor.expect("[")
        coeffs = [cursor.integer()]
        while cursor.peek_is(","):
            cursor.expect(",")
            coeffs.append(cursor.integer())
        cursor.expect("]")
        cursor.expect("}")
        return PolyQuot(p, tuple(coeffs))
    if kind == "Product":
        cursor.expect("[")
        factors = [_parse_spec(cursor, max_size, built, depth + 1)]
        while cursor.peek_is(","):
            cursor.expect(",")
            factors.append(_parse_spec(cursor, max_size, built, depth + 1))
        cursor.expect("]")
        return Product(tuple(factors))
    if kind == "Quotient":
        cursor.expect("{")
        cursor.expect("ring")
        cursor.expect(":")
        base = _parse_spec(cursor, max_size, built, depth + 1)
        cursor.expect(",")
        cursor.expect("gens")
        cursor.expect(":")
        cursor.expect("[")
        validate_descriptor(base, max_size)
        base_ring = _build_valid(base, built)
        gens = []
        if not cursor.peek_is("]"):
            while True:
                text = cursor.chunk_until(",]")
                try:
                    gens.append(base_ring.parse_value(text))
                except ParseError:
                    raise
                except ValueError as exc:
                    raise ParseError(str(exc), position=cursor.pos) from None
                if cursor.peek_is(","):
                    cursor.expect(",")
                else:
                    break
        cursor.expect("]")
        cursor.expect("}")
        return Quotient(base, tuple(gens))
    raise ParseError(f"unknown ring kind {kind!r}", position=start)


def parse_ring_spec(text: str, max_size: int = DEFAULT_MAX_RING_SIZE) -> RingDescriptor:
    """Parse and validate a ring spec; of its rings, build each quotient's base once."""
    if not isinstance(text, str):
        raise ParseError(f"ring spec must be text, got {type(text).__name__}")
    cursor = _Cursor(text)
    descriptor = _parse_spec(cursor, max_size, {})
    if not cursor.at_end():
        raise ParseError("unexpected trailing text", position=cursor.pos)
    validate_descriptor(descriptor, max_size)
    return descriptor


def render_ring_spec(ring: Ring) -> str:
    """Canonical text for a built ring; parses back to an equal ring.

    A product renders its factor rings and a quotient renders its
    generators through its base ring, so nothing is built here.
    """
    desc = ring.descriptor
    if isinstance(desc, ZMod):
        return f"Zmod:{desc.n}"
    if isinstance(desc, PolyQuot):
        coeffs = ",".join(str(c) for c in desc.modulus)
        return f"PolyQuot:{{p:{desc.p},poly:[{coeffs}]}}"
    if isinstance(desc, Product):
        inner = ",".join(render_ring_spec(f) for f in ring.factors)
        return f"Product:[{inner}]"
    if isinstance(desc, Quotient):
        gens = ",".join(ring.base.render_value(v) for v in desc.generators)
        return f"Quotient:{{ring:{render_ring_spec(ring.base)},gens:[{gens}]}}"
    raise TypeError(f"not a ring descriptor: {desc!r}")


def parse_ideal_text(ring: Ring, text: str) -> Ideal:
    """Ideal from generator text: "(0)", "(2,3)", or a bare "2,3" list.

    "(0)", "()" and "" give the zero ideal on every ring kind, so the
    text `Ideal.text()` writes for a zero ideal always reads back.
    """
    if not isinstance(text, str):
        raise ParseError(f"ideal text must be text, got {type(text).__name__}")
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1].strip()
    if body in ("", "0"):
        return Ideal.zero(ring)
    try:
        values = [ring.parse_value(chunk) for chunk in split_top_level(body)]
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    return Ideal.from_generators(ring, values)
