"""Minimal HTML parser: markup -> (Document, Stylesheet).

Supports the subset the workloads and examples need: nested elements
with ``id``/``class``/other attributes, self-closing tags, ``<style>``
blocks (collected and parsed as CSS), comments, and text (ignored —
text nodes carry no QoS-relevant behaviour).  ``<html>`` in the markup
is merged into the document's implicit root.
"""

from __future__ import annotations

from html.parser import HTMLParser

from repro.errors import HtmlParseError
from repro.web.css.parser import parse_stylesheet
from repro.web.css.stylesheet import Stylesheet
from repro.web.dom import Document, Element

_VOID_TAGS = frozenset(
    {"br", "hr", "img", "input", "meta", "link", "area", "base", "col", "embed",
     "source", "track", "wbr"}
)


class _DomBuilder(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.document = Document()
        self._stack: list[Element] = [self.document.root]
        self._style_chunks: list[str] = []
        self._in_style = False

    def handle_starttag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        tag = tag.lower()
        if tag == "style":
            self._in_style = True
            return
        if tag == "html":
            # merge attributes into the implicit root
            self._apply_attrs(self.document.root, attrs)
            return
        element = self._make_element(tag, attrs)
        self._stack[-1].append_child(element)
        if tag not in _VOID_TAGS:
            self._stack.append(element)

    def handle_startendtag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        tag = tag.lower()
        if tag in ("style", "html"):
            return
        self._stack[-1].append_child(self._make_element(tag, attrs))

    def handle_endtag(self, tag: str) -> None:
        tag = tag.lower()
        if tag == "style":
            self._in_style = False
            return
        if tag == "html" or tag in _VOID_TAGS:
            return
        # Pop to the matching open tag; tolerate mismatches like browsers do.
        for index in range(len(self._stack) - 1, 0, -1):
            if self._stack[index].tag == tag:
                del self._stack[index:]
                return

    def handle_data(self, data: str) -> None:
        if self._in_style:
            self._style_chunks.append(data)

    def _make_element(self, tag: str, attrs: list[tuple[str, str | None]]) -> Element:
        element = Element(tag)
        self._apply_attrs(element, attrs)
        return element

    @staticmethod
    def _apply_attrs(element: Element, attrs: list[tuple[str, str | None]]) -> None:
        for name, value in attrs:
            value = value if value is not None else ""
            if name == "id":
                element.id = value
            elif name == "class":
                element.classes.update(value.split())
            elif name == "style":
                for part in value.split(";"):
                    if ":" in part:
                        prop, _, val = part.partition(":")
                        element.style[prop.strip().lower()] = val.strip()
            else:
                element.attributes[name] = value

    @property
    def style_text(self) -> str:
        return "\n".join(self._style_chunks)


def parse_html(markup: str) -> tuple[Document, Stylesheet]:
    """Parse HTML markup into a DOM and the combined stylesheet from
    all of its ``<style>`` blocks.

    Returns a new document and stylesheet on every call, so callers may
    mutate them (attach listeners, add rules) freely.  (The twelve
    applications parse their markup once per process, into their
    templates; see :mod:`repro.workloads.registry`.)

    Raises:
        HtmlParseError: on markup the builder cannot place (e.g. an id
            duplicated across elements).
    """
    builder = _DomBuilder()
    try:
        builder.feed(markup)
        builder.close()
    except HtmlParseError:
        raise
    except Exception as exc:  # DomError and parser internals
        raise HtmlParseError(f"failed to parse markup: {exc}") from exc
    style_text = builder.style_text.strip()
    sheet = parse_stylesheet(style_text) if style_text else Stylesheet()
    # Re-index after full construction so late id assignments are found.
    for element in builder.document.all_elements():
        builder.document._index(element)
    return builder.document, sheet
