"""Tokenizer for MSL text.

Token kinds:

``punct``    ``< > { } ( ) , | @ ; .. :- :``
``compare``  ``= != <= >= > <`` (note ``<``/``>`` double as pattern
             delimiters; the lexer emits them as ``punct`` and the parser
             decides by context)
``string``   quoted with ``'`` or ``"`` (backslash escapes)
``number``   integer or real
``word``     identifiers; the parser classifies variables (capitalised)
             vs. constants (lowercase) via :func:`~repro.msl.ast.is_variable_name`
``oid``      ``&name``
``param``    ``$name``

Comments run from ``//`` or ``#`` to end of line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache

from repro.msl.errors import MSLSyntaxError

__all__ = ["Token", "tokenize", "scan_literals"]


@dataclass(frozen=True, slots=True)
class Token:
    kind: str
    text: str
    value: object
    pos: int
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, line {self.line})"


_SIMPLE_PUNCT = set("<>{}(),|@;")


def _is_digit(ch: str) -> bool:
    """ASCII digits only: str.isdigit() accepts characters (e.g. '²')
    that int() rejects."""
    return "0" <= ch <= "9"

# multi-character operators, longest first
_MULTI = [":-", "..", "!=", "<=", ">="]


def tokenize(text: str) -> list[Token]:
    """Tokenize MSL source ``text``.

    >>> [t.kind for t in tokenize("<name N>")]
    ['punct', 'word', 'word', 'punct']
    """
    tokens: list[Token] = []
    i, n = 0, len(text)
    line, line_start = 1, 0

    def location(pos: int) -> tuple[int, int]:
        return line, pos - line_start + 1

    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if ch.isspace():
            i += 1
            continue
        if ch == "#" or text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue

        ln, col = location(i)

        matched_multi = False
        for op in _MULTI:
            if text.startswith(op, i):
                kind = "compare" if op in ("!=", "<=", ">=") else "punct"
                # '<=' only counts as compare when not opening a pattern;
                # the parser resolves that by context, so emit compare.
                tokens.append(Token(kind, op, op, i, ln, col))
                i += len(op)
                matched_multi = True
                break
        if matched_multi:
            continue

        if ch == "=":
            tokens.append(Token("compare", "=", "=", i, ln, col))
            i += 1
            continue
        if ch == ":":
            tokens.append(Token("punct", ":", ":", i, ln, col))
            i += 1
            continue
        if ch in _SIMPLE_PUNCT:
            tokens.append(Token("punct", ch, ch, i, ln, col))
            i += 1
            continue
        if ch in "'\"":
            quote = ch
            j = i + 1
            parts: list[str] = []
            while j < n:
                cj = text[j]
                if cj == "\\" and j + 1 < n:
                    parts.append(text[j + 1])
                    j += 2
                    continue
                if cj == quote:
                    break
                if cj == "\n":
                    raise MSLSyntaxError(
                        "newline inside string literal", i, ln, col
                    )
                parts.append(cj)
                j += 1
            else:
                raise MSLSyntaxError("unterminated string literal", i, ln, col)
            tokens.append(
                Token("string", text[i : j + 1], "".join(parts), i, ln, col)
            )
            i = j + 1
            continue
        if ch == "&":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j == i + 1:
                raise MSLSyntaxError("bare '&' is not an oid", i, ln, col)
            tokens.append(Token("oid", text[i:j], text[i + 1 : j], i, ln, col))
            i = j
            continue
        if ch == "$":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j == i + 1:
                raise MSLSyntaxError("bare '$' is not a parameter", i, ln, col)
            tokens.append(
                Token("param", text[i:j], text[i + 1 : j], i, ln, col)
            )
            i = j
            continue
        if _is_digit(ch) or (
            ch == "-" and i + 1 < n and _is_digit(text[i + 1])
        ):
            j = i + 1
            seen_dot = seen_exp = False
            while j < n:
                cj = text[j]
                if _is_digit(cj):
                    j += 1
                elif (
                    cj == "."
                    and not seen_dot
                    and not seen_exp
                    and j + 1 < n
                    and _is_digit(text[j + 1])
                ):
                    seen_dot = True
                    j += 1
                elif (
                    cj in "eE"
                    and not seen_exp
                    and j + 1 < n
                    and (
                        _is_digit(text[j + 1])
                        or (
                            text[j + 1] in "+-"
                            and j + 2 < n
                            and _is_digit(text[j + 2])
                        )
                    )
                ):
                    seen_exp = True
                    j += 2 if text[j + 1] in "+-" else 1
                else:
                    break
            raw = text[i:j]
            value: object = (
                float(raw) if seen_dot or seen_exp else int(raw)
            )
            tokens.append(Token("number", raw, value, i, ln, col))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            tokens.append(Token("word", word, word, i, ln, col))
            i = j
            continue
        raise MSLSyntaxError(f"unexpected character {ch!r}", i, ln, col)
    return tokens


# ---------------------------------------------------------------------------
# the literal scan
# ---------------------------------------------------------------------------


@cache
def _literal_scanner():
    """One alternative per token class of :func:`tokenize` that can hold
    a letter, a digit, a quote or a minus sign, in the tokenizer's own
    order of precedence — so a digit inside a word, a quote inside a
    comment and the ``-`` of ``:-`` are never mistaken for the start of
    a literal.  Built on first use: importing the lexer compiles
    nothing.
    """
    return re.compile(
        r"""
          (?P<other> \#[^\n]* | //[^\n]* | :- | [&$]\w+ )
        | (?P<word> [^\W0-9]\w* )
        | (?P<string> '(?:\\.|[^'\\\n])*' | "(?:\\.|[^"\\\n])*" )
        | (?P<number> -?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)? )
        """,
        re.VERBOSE | re.DOTALL,
    ).finditer


_UNESCAPE = re.compile(r"\\(.)", re.DOTALL)


def scan_literals(text: str) -> tuple[str, list[object]]:
    """``text`` split into its *skeleton* and its literal values.

    The literals are what :func:`tokenize` would emit as ``string`` and
    ``number`` tokens plus the bare words the parser reads as booleans,
    with the same values, in text order; the skeleton is everything
    else, verbatim, with a NUL where each literal stood.  Two texts with
    equal skeletons therefore tokenize alike up to the values of their
    literals, which is what lets a query's parse be remembered by
    skeleton (:func:`repro.msl.lift.lift_text`).  Never raises: text
    the tokenizer rejects yields some skeleton nobody memoizes.
    """
    pieces: list[str] = []
    values: list[object] = []
    last = 0
    for match in _literal_scanner()(text):
        kind = match.lastgroup
        if kind == "other":
            continue
        raw = match.group()
        if kind == "word":
            if raw[0] not in "tf" or raw.lower() not in ("true", "false"):
                continue
            value: object = raw[0] == "t"
        elif kind == "string":
            value = raw[1:-1]
            if "\\" in value:
                value = _UNESCAPE.sub(r"\1", value)
        elif "." in raw or "e" in raw or "E" in raw:
            value = float(raw)
        else:
            value = int(raw)
        pieces.append(text[last : match.start()])
        values.append(value)
        last = match.end()
    pieces.append(text[last:])
    return "\0".join(pieces), values
