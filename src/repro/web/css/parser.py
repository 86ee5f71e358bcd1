"""CSS rule parser: token stream -> :class:`Stylesheet`.

Grammar (the slice we support, which subsumes the paper's Fig. 3)::

    stylesheet  := rule*
    rule        := selector-list '{' declaration* '}'
    selector-list := selector (',' selector)*
    declaration := IDENT ':' component-value+ ';'?

At-rules (``@media``, ``@keyframes``, ``@font-face``, ...) are parsed
structurally and skipped: their prelude and block are consumed without
interpretation, since no QoS-relevant behaviour lives inside them in
this reproduction (keyframe *names* are referenced by the ``animation``
property, whose frame-generation behaviour is modelled directly).

Component values keep their tokens so the GreenWeb language layer and
the transition parser can interpret them without re-tokenizing.

Each distinct CSS text is parsed once per process: the rules are
frozen values (tuples and frozensets all the way down), so one parsed
tuple is shared, and every call gets its own mutable :class:`Stylesheet`
over it.
"""

from __future__ import annotations

import functools

from repro.errors import CssSyntaxError
from repro.web.css.selectors import Selector, parse_selector_from_tokens
from repro.web.css.stylesheet import Declaration, StyleRule, Stylesheet
from repro.web.css.tokenizer import CssToken, CssTokenType, tokenize


def parse_stylesheet(text: str) -> Stylesheet:
    """Parse CSS text into a :class:`Stylesheet`.

    Returns a new stylesheet on every call; the rules in it are
    immutable and shared with every other parse of the same text.

    Raises:
        CssSyntaxError: on malformed rules (with source position).
        SelectorError: on malformed selectors.
    """
    return Stylesheet(_parse_rules(text))


#: Distinct CSS texts kept parsed: the twelve apps' page and annotation
#: CSS with room for AutoGreen output and ad-hoc sheets, bounded so that
#: a stream of generated CSS cannot grow memory without limit.
_PARSED_TEXTS = 512


@functools.lru_cache(maxsize=_PARSED_TEXTS)
def _parse_rules(text: str) -> tuple[StyleRule, ...]:
    """The rules of ``text``, parsed once per process (a failed parse
    raises and is not cached)."""
    tokens = tokenize(text, keep_whitespace=True)
    rules: list[StyleRule] = []
    index = 0
    while True:
        index = _skip_ws(tokens, index)
        if tokens[index].type is CssTokenType.EOF:
            break
        if tokens[index].type is CssTokenType.ATKEYWORD:
            index = _skip_at_rule(tokens, index)
            continue
        rule, index = _parse_rule(tokens, index)
        rules.append(rule)
    return tuple(rules)


def _skip_at_rule(tokens: list[CssToken], index: int) -> int:
    """Consume an at-rule: prelude then either ``;`` or a balanced
    ``{...}`` block (with nested blocks, as @media contains rules)."""
    at_token = tokens[index]
    index += 1
    while tokens[index].type not in (
        CssTokenType.LBRACE,
        CssTokenType.SEMICOLON,
        CssTokenType.EOF,
    ):
        index += 1
    if tokens[index].type is CssTokenType.SEMICOLON:
        return index + 1
    if tokens[index].type is CssTokenType.EOF:
        raise CssSyntaxError(
            f"unterminated @{at_token.value} rule", at_token.line, at_token.column
        )
    depth = 0
    while True:
        token = tokens[index]
        if token.type is CssTokenType.LBRACE:
            depth += 1
        elif token.type is CssTokenType.RBRACE:
            depth -= 1
            if depth == 0:
                return index + 1
        elif token.type is CssTokenType.EOF:
            raise CssSyntaxError(
                f"unbalanced braces in @{at_token.value} rule",
                at_token.line,
                at_token.column,
            )
        index += 1


def _skip_ws(tokens: list[CssToken], index: int) -> int:
    while tokens[index].type is CssTokenType.WHITESPACE:
        index += 1
    return index


def _parse_rule(tokens: list[CssToken], index: int) -> tuple[StyleRule, int]:
    selectors: list[Selector] = []
    while True:
        selector, index = parse_selector_from_tokens(tokens, index)
        selectors.append(selector)
        index = _skip_ws(tokens, index)
        token = tokens[index]
        if token.type is CssTokenType.COMMA:
            index += 1
            continue
        if token.type is CssTokenType.LBRACE:
            index += 1
            break
        raise CssSyntaxError(
            f"expected '{{' or ',' after selector, got {token.value!r}",
            token.line,
            token.column,
        )

    declarations: list[Declaration] = []
    while True:
        index = _skip_ws(tokens, index)
        token = tokens[index]
        if token.type is CssTokenType.RBRACE:
            index += 1
            break
        if token.type is CssTokenType.EOF:
            raise CssSyntaxError("unterminated rule (missing '}')", token.line, token.column)
        if token.type is CssTokenType.SEMICOLON:
            index += 1
            continue
        declaration, index = _parse_declaration(tokens, index)
        declarations.append(declaration)

    return StyleRule(tuple(selectors), tuple(declarations)), index


def _parse_declaration(tokens: list[CssToken], index: int) -> tuple[Declaration, int]:
    token = tokens[index]
    if token.type is not CssTokenType.IDENT:
        raise CssSyntaxError(
            f"expected property name, got {token.value!r}", token.line, token.column
        )
    prop = token.value.lower()
    index = _skip_ws(tokens, index + 1)
    colon = tokens[index]
    if colon.type is not CssTokenType.COLON:
        raise CssSyntaxError(
            f"expected ':' after property {prop!r}, got {colon.value!r}",
            colon.line,
            colon.column,
        )
    index += 1

    value_tokens: list[CssToken] = []
    pieces: list[str] = []
    pending_space = False
    while True:
        token = tokens[index]
        if token.type in (CssTokenType.SEMICOLON, CssTokenType.RBRACE, CssTokenType.EOF):
            break
        if token.type is CssTokenType.WHITESPACE:
            pending_space = True
            index += 1
            continue
        if pending_space and pieces:
            pieces.append(" ")
        pending_space = False
        value_tokens.append(token)
        pieces.append(token.value)
        index += 1

    if not value_tokens:
        raise CssSyntaxError(
            f"declaration of {prop!r} has no value", tokens[index].line, tokens[index].column
        )
    if tokens[index].type is CssTokenType.SEMICOLON:
        index += 1
    value_text = "".join(pieces).replace(" ,", ",").replace(", ", ",").replace(",", ", ")
    return Declaration(prop, value_text, tuple(value_tokens)), index
