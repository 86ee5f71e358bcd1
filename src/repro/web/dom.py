"""Document Object Model.

A deliberately small DOM: elements have a tag, an optional id, a class
set, attributes, children, and per-event listener lists.  That is all
HTML contributes to the paper's system — GreenWeb selects elements via
CSS selectors and attaches QoS metadata to (element, event) pairs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from repro.errors import DomError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.web.script import Callback


class ClassSet(set):
    """A set of class names that remembers insertion order.

    The DOM-visible ``class`` attribute is ordered text ("nav active"),
    and attribute selectors like ``[class^=nav]`` match against that
    text — so the order classes were written in must survive the set
    representation.  Iteration yields names in insertion order; all set
    membership operations keep their usual cost.
    """

    def __init__(self, names: Iterable[str] = ()) -> None:
        super().__init__()
        self._order: list[str] = []
        if not names:
            return
        if isinstance(names, ClassSet):
            set.update(self, names)
            self._order.extend(names._order)
            return
        if isinstance(names, (set, frozenset)):
            # A plain set has no meaningful order (and its iteration
            # order is hash-seed dependent): sort for determinism.
            names = sorted(names)
        for name in names:
            self.add(name)

    def add(self, name: str) -> None:
        if name not in self:
            super().add(name)
            self._order.append(name)

    def discard(self, name: str) -> None:
        if name in self:
            super().discard(name)
            self._order.remove(name)

    def remove(self, name: str) -> None:
        if name not in self:
            raise KeyError(name)
        self.discard(name)

    def update(self, names: Iterable[str]) -> None:
        for name in names:
            self.add(name)

    def clear(self) -> None:
        super().clear()
        self._order.clear()

    def __iter__(self) -> Iterator[str]:
        return iter(self._order)


class Element:
    """One DOM element."""

    def __init__(
        self,
        tag: str,
        element_id: str = "",
        classes: Optional[Iterable[str]] = None,
        attributes: Optional[dict[str, str]] = None,
    ) -> None:
        if not tag or not tag.replace("-", "").isalnum():
            raise DomError(f"invalid tag name: {tag!r}")
        self.tag = tag.lower()
        self.id = element_id
        self.classes: ClassSet = ClassSet(classes or ())
        self.attributes: dict[str, str] = dict(attributes) if attributes else {}
        self.parent: Optional[Element] = None
        self.children: list[Element] = []
        #: Inline style properties (a plain property->value map).
        self.style: dict[str, str] = {}
        self._listeners: dict[str, list["Callback"]] = {}
        self._capture_listeners: dict[str, list["Callback"]] = {}
        self._document: Optional["Document"] = None

    # ------------------------------------------------------------------
    # Tree structure
    # ------------------------------------------------------------------
    def append_child(self, child: "Element") -> "Element":
        """Attach ``child`` as the last child; returns the child."""
        if child is self or child in self.ancestors():
            raise DomError("cannot append an element into itself or its ancestor chain")
        if child.parent is not None:
            child.parent.children.remove(child)
        child.parent = self
        self.children.append(child)
        child._adopt(self._document)
        return child

    def remove_child(self, child: "Element") -> None:
        """Detach ``child`` from this element."""
        if child.parent is not self:
            raise DomError(f"{child!r} is not a child of {self!r}")
        self.children.remove(child)
        child.parent = None
        child._adopt(None)

    def _adopt(self, document: Optional["Document"]) -> None:
        self._document = document
        if document is not None:
            document._index(self)
        for child in self.children:
            child._adopt(document)

    def ancestors(self) -> Iterator["Element"]:
        """Yield ancestors from parent to root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def descendants(self) -> Iterator["Element"]:
        """Yield all descendants in document (pre-)order."""
        for child in self.children:
            yield child
            yield from child.descendants()

    @property
    def document(self) -> Optional["Document"]:
        return self._document

    # ------------------------------------------------------------------
    # Event listeners
    # ------------------------------------------------------------------
    def add_event_listener(
        self, event_type: str, callback: "Callback", capture: bool = False
    ) -> None:
        """Register a callback for ``event_type`` on this element.

        ``capture=True`` registers for the capture phase: the callback
        runs while the event travels root-to-target, *before* any
        target/bubble listener (the DOM's ``addEventListener``
        ``useCapture`` flag).
        """
        table = self._capture_listeners if capture else self._listeners
        table.setdefault(event_type, []).append(callback)

    def remove_event_listener(
        self, event_type: str, callback: "Callback", capture: bool = False
    ) -> None:
        table = self._capture_listeners if capture else self._listeners
        listeners = table.get(event_type, [])
        if callback not in listeners:
            raise DomError(f"callback not registered for {event_type!r}")
        listeners.remove(callback)

    def listeners(self, event_type: str, capture: bool = False) -> list["Callback"]:
        """Callbacks registered on this element for ``event_type``."""
        table = self._capture_listeners if capture else self._listeners
        return list(table.get(event_type, []))

    @property
    def listened_event_types(self) -> list[str]:
        """Event types that have at least one listener here (either
        phase)."""
        names = [name for name, cbs in self._listeners.items() if cbs]
        names.extend(
            name for name, cbs in self._capture_listeners.items()
            if cbs and name not in names
        )
        return names

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    @property
    def class_attr(self) -> str:
        """The ``class`` attribute as source-ordered text ("nav active"),
        the string attribute selectors match against."""
        return " ".join(self.classes)

    def matches(self, selector: str) -> bool:
        """True if this element matches the CSS ``selector`` string."""
        from repro.web.css.selectors import parse_selector

        return parse_selector(selector).matches(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ident = f"#{self.id}" if self.id else ""
        classes = "".join(f".{c}" for c in sorted(self.classes))
        return f"<Element {self.tag}{ident}{classes}>"


class Document:
    """A DOM document: a root ``<html>`` element plus indices."""

    def __init__(self) -> None:
        self.root = Element("html")
        self.root._document = self
        self._by_id: dict[str, Element] = {}

    def create_element(
        self,
        tag: str,
        element_id: str = "",
        classes: Optional[set[str]] = None,
        attributes: Optional[dict[str, str]] = None,
        parent: Optional[Element] = None,
    ) -> Element:
        """Create an element and (optionally) attach it under ``parent``
        (default: the document root)."""
        element = Element(tag, element_id, classes, attributes)
        target = parent if parent is not None else self.root
        target.append_child(element)
        return element

    def _index(self, element: Element) -> None:
        if element.id:
            existing = self._by_id.get(element.id)
            if existing is not None and existing is not element:
                raise DomError(f"duplicate element id {element.id!r}")
            self._by_id[element.id] = element

    def clone(self) -> "Document":
        """A mutable structural copy (also of a frozen document): new
        elements in the same tree shape, with each element's id,
        classes (in source order), attributes, inline style and
        listener lists copied, indexed by id.  The callback objects
        themselves are shared; they keep no state of their own."""
        copy = Document()
        root = copy.root
        root.id = self.root.id
        root.classes = ClassSet(self.root.classes)
        root.attributes = dict(self.root.attributes)
        _copy_element_state(self.root, root)
        if root.id:
            copy._by_id[root.id] = root
        _clone_children(self.root, root, copy)
        return copy

    def freeze(self) -> "Document":
        """Make this document read-only in place and return it.

        Every DOM write then raises :class:`DomError`: inline style,
        attribute and class edits, listener (un)registration, tree
        edits and attribute assignment on any element or the document.
        This is the form of a document shared by many sessions (an
        application template), so a session that writes it fails
        loudly instead of leaking state into the next one; such a
        session needs a :meth:`clone`.
        """
        for element in self.all_elements():
            element.style = _ReadOnlyDict(element.style)
            element.attributes = _ReadOnlyDict(element.attributes)
            element.classes._order = tuple(element.classes._order)
            element.classes.__class__ = _ReadOnlyClassSet
            element.children = tuple(element.children)
            element.__class__ = _FrozenElement
        self._by_id = _ReadOnlyDict(self._by_id)
        self.__class__ = _FrozenDocument
        return self

    def get_element_by_id(self, element_id: str) -> Optional[Element]:
        """Look up an attached element by id (None if absent)."""
        element = self._by_id.get(element_id)
        if element is not None and element.document is not self:
            return None
        return element

    def all_elements(self) -> Iterator[Element]:
        """All attached elements including the root, document order."""
        yield self.root
        yield from self.root.descendants()

    def query_selector_all(self, selector: str) -> list[Element]:
        """All elements matching a CSS selector, document order."""
        from repro.web.css.selectors import parse_selector

        parsed = parse_selector(selector)
        return [e for e in self.all_elements() if parsed.matches(e)]

    def query_selector(self, selector: str) -> Optional[Element]:
        """First element matching a CSS selector, or None."""
        matches = self.query_selector_all(selector)
        return matches[0] if matches else None

    def element_count(self) -> int:
        """Number of attached elements (including the root)."""
        return sum(1 for _ in self.all_elements())


def _copy_element_state(source: Element, copy: Element) -> None:
    copy.style = dict(source.style)
    if source._listeners:
        copy._listeners = {name: list(cbs) for name, cbs in source._listeners.items()}
    if source._capture_listeners:
        copy._capture_listeners = {
            name: list(cbs) for name, cbs in source._capture_listeners.items()
        }


def _clone_children(source: Element, parent: Element, document: Document) -> None:
    # Direct wiring: the source tree is already validated (acyclic, ids
    # unique), so append_child's ancestor walk and re-adoption are moot.
    for child in source.children:
        copy = Element(child.tag, child.id, child.classes, child.attributes)
        _copy_element_state(child, copy)
        copy.parent = parent
        copy._document = document
        parent.children.append(copy)
        if copy.id:
            document._by_id[copy.id] = copy
        _clone_children(child, copy, document)


# ----------------------------------------------------------------------
# Read-only (frozen) documents
# ----------------------------------------------------------------------
def _refuse(self, *args, **kwargs):
    raise DomError(
        "this DOM is a frozen document shared across sessions (an "
        "application template) and cannot be written; write a clone() of it"
    )


class _ReadOnlyDict(dict):
    """A frozen element's style and attribute maps, a frozen id index."""

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse


class _ReadOnlyClassSet(ClassSet):
    """A frozen element's class list."""

    add = discard = remove = update = clear = pop = _refuse
    difference_update = intersection_update = symmetric_difference_update = _refuse
    __ior__ = __iand__ = __isub__ = __ixor__ = _refuse


class _FrozenElement(Element):
    """An element of a frozen document: every mutator raises."""

    __setattr__ = __delattr__ = _refuse
    append_child = remove_child = _adopt = _refuse
    add_event_listener = remove_event_listener = _refuse


class _FrozenDocument(Document):
    """A frozen document: every mutator raises (see Document.freeze)."""

    __setattr__ = __delattr__ = _refuse
    create_element = _index = _refuse

    def freeze(self) -> "Document":
        return self
