"""The declared-config layer: one file format, one source reader, one
field-spec check.

The repo's declarative inputs — ``tenants.yaml`` quota files
(:mod:`repro.service.quotas`) and scenario files
(:mod:`repro.scenarios.schema`) — are frozen :class:`Spec` dataclasses
whose fields *declare* what they accept, once, with :func:`setting`:

* a **kind** — :data:`INT`, :data:`NUMBER`, :data:`BOOL`, :data:`STR`,
  :func:`optional` of a kind, a nested spec class, :func:`sequence` of
  a spec class, or :func:`mapping_of` a scalar kind.  ``bool`` never
  passes as a number, and an ``int`` passes where a number is declared;
* an optional **bound** — a limit (:func:`at_least`, :func:`above`) or
  a choice (:func:`one_of`).  Scalar kinds and bounds are both a
  :class:`Rule`: a predicate plus what it demands, in words;
* an optional **wording** for the error, so a message a test pins can
  stay byte-identical.

:class:`Spec` runs the one check on every construction — direct,
``dataclasses.replace``, or :func:`build_spec` from a parsed mapping —
and :func:`build_spec` is the only way a mapping becomes a spec, so
:func:`reject_unknown` is the one unknown-key check for every config
mapping.  A typo'd quota silently defaulting would be a production
incident, and a typo'd scenario knob an undebuggable digest mismatch:
both raise at load time instead.  Checks that read two or more fields
(or parse a literal) stay with their spec, in :meth:`Spec.check`.

The file format is :func:`parse_simple_yaml`, a dependency-free
reader for the tiny indentation-based YAML subset the config files
need (the package depends on NumPy only, and neither a quota file nor
a scenario file needs more): nested mappings of scalars, block
sequences, flat flow sequences, comments and blank lines.  JSON input
is accepted too (any text whose first non-space character is ``{``).
:func:`dump_simple_yaml` writes the same subset back.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable

from .errors import ExecutionError


# ----------------------------------------------------------------------
# The YAML subset
# ----------------------------------------------------------------------
def _parse_scalar(text: str):
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    if len(text) >= 2 and text[0] == "[" and text[-1] == "]":
        inner = text[1:-1].strip()
        if not inner:
            return []
        items = _split_flow_items(inner)
        if items is not None:
            return [_parse_scalar(item) for item in items]
        return text
    lowered = text.lower()
    if lowered in ("null", "none", "~"):
        return None
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _split_flow_items(inner: str) -> "list[str] | None":
    """Split a flow-sequence body on top-level commas, honoring
    quotes; ``None`` when the body nests (``[``/``{``) or leaves a
    quote open — callers keep the raw text rather than guess."""
    items, start, i, n = [], 0, 0, len(inner)
    while i < n:
        ch = inner[i]
        if ch in "'\"":
            end = inner.find(ch, i + 1)
            if end < 0:
                return None
            i = end + 1
            continue
        if ch in "[{":
            return None
        if ch == ",":
            items.append(inner[start:i])
            start = i + 1
        i += 1
    items.append(inner[start:])
    return items


def parse_simple_yaml(text: str) -> dict:
    """Parse the tiny YAML subset the repo's config files need.

    Supported: arbitrarily nested mappings with scalar leaves, block
    sequences (``- item`` lines holding scalars or ``key: value``
    mappings — what a scenario file's query list needs), flat flow
    sequences of scalars (``["300/50", "120"]``), ``#`` comments
    (full-line or trailing), blank lines, single- or double-quoted
    strings, ints/floats/bools/null.  Not supported (raises, never
    guesses): flow mappings, nested flow sequences, anchors,
    multi-line scalars, tabs.  JSON is accepted as a fast path when
    the first non-space character is ``{``.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return json.loads(text)
    root: dict = {}
    # Stack of (indent, container) — a line's indent selects its
    # parent; containers are mappings or (for '- ' blocks) lists.
    stack: "list[tuple[int, dict | list]]" = [(-1, root)]
    pending: "tuple[int, str] | None" = None  # key awaiting its block
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "\t" in raw:
            raise ExecutionError(
                f"config line {lineno}: tabs are not allowed "
                "(indent with spaces)"
            )
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        indent = len(line) - len(line.lstrip(" "))
        body = line.strip()
        if body == "-" or body.startswith("- "):
            pending, stack = _resolve_pending(
                pending, stack, indent, as_list=True
            )
            # A dash pops everything deeper, and mappings at its own
            # indent, but never the list it appends to (which was
            # pushed at the dash column).
            while stack[-1][0] > indent or (
                stack[-1][0] == indent
                and not isinstance(stack[-1][1], list)
            ):
                stack.pop()
            target = stack[-1][1]
            if not isinstance(target, list) or stack[-1][0] != indent:
                raise ExecutionError(
                    f"config line {lineno}: misindented sequence item "
                    f"{body!r} (a '- ' block must open under a bare "
                    "'key:' line and keep one dash column)"
                )
            rest = body[1:].strip()
            if not rest:
                raise ExecutionError(
                    f"config line {lineno}: empty sequence item "
                    "(write the value on the dash line: '- value' or "
                    "'- key: value')"
                )
            if ":" in rest and not (
                rest[0] in "'\"" and rest[0] == rest[-1] and len(rest) >= 2
            ):
                # '- key: value' opens a mapping item; its remaining
                # keys sit two columns right of the dash, so the item
                # is pushed just past the dash column.
                item: dict = {}
                target.append(item)
                stack.append((indent + 1, item))
                key, _, value = rest.partition(":")
                if not value.strip():
                    pending = (indent + 2, key.strip())
                else:
                    item[key.strip()] = _parse_scalar(value)
            else:
                target.append(_parse_scalar(rest))
            continue
        if ":" not in body:
            raise ExecutionError(
                f"config line {lineno}: expected 'key: value' "
                f"or 'key:', got {body!r}"
            )
        key, _, value = body.partition(":")
        key = key.strip()
        pending, stack = _resolve_pending(pending, stack, indent)
        while indent <= stack[-1][0]:
            stack.pop()
        if isinstance(stack[-1][1], list):
            raise ExecutionError(
                f"config line {lineno}: mapping key {key!r} inside a "
                "sequence must belong to a '- key: value' item"
            )
        if not value.strip():
            pending = (indent, key)
        else:
            stack[-1][1][key] = _parse_scalar(value)
    if pending is not None:
        stack[-1][1][pending[1]] = {}
    return root


def _resolve_pending(pending, stack, indent, as_list: bool = False):
    """Close out a ``key:`` line once its first follower arrives: a
    deeper follower opens the key's block (mapping, or list when the
    follower is a ``- `` item), a same-or-shallower one leaves ``{}``.
    The stack records the *opening key's* indent for mappings (so
    siblings of the key pop it and deeper lines don't) and the *dash
    column* for lists (so every later dash finds its list)."""
    if pending is None:
        return None, stack
    pending_indent, pending_key = pending
    if indent > pending_indent:
        child: "dict | list" = [] if as_list else {}
        stack[-1][1][pending_key] = child
        stack.append((indent if as_list else pending_indent, child))
    else:
        stack[-1][1][pending_key] = {}
    return None, stack


def read_source(source: "str | Path | dict") -> "tuple[dict, str]":
    """A config source as ``(parsed mapping, file stem)``.

    A :class:`~pathlib.Path`, or a one-line string ending in
    ``.yaml`` / ``.yml`` / ``.json``, is read from disk; other text is
    parsed as it is; a dict passes through.  The stem is ``""`` unless
    a file was read.
    """
    if isinstance(source, dict):
        return source, ""
    text = str(source)
    if isinstance(source, Path) or (
        "\n" not in text and text.endswith((".yaml", ".yml", ".json"))
    ):
        path = Path(source)
        return parse_simple_yaml(path.read_text()), path.stem
    return parse_simple_yaml(text), ""


def _dump_scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    text = str(value)
    if _parse_scalar(text) == text and "#" not in text and text:
        return text
    return json.dumps(text)


def _dump_mapping(data: dict, indent: int, lines: "list[str]") -> None:
    pad = " " * indent
    for key, value in data.items():
        if value is None:
            continue
        if isinstance(value, dict):
            if not value:
                continue
            lines.append(f"{pad}{key}:")
            _dump_mapping(value, indent + 2, lines)
        elif isinstance(value, (list, tuple)):
            lines.append(f"{pad}{key}:")
            for item in value:
                if isinstance(item, dict):
                    entries = [
                        (k, v) for k, v in item.items() if v is not None
                    ]
                    first_key, first_value = entries[0]
                    lines.append(
                        f"{pad}  - {first_key}: {_dump_scalar(first_value)}"
                    )
                    _dump_mapping(dict(entries[1:]), indent + 4, lines)
                else:
                    lines.append(f"{pad}  - {_dump_scalar(item)}")
        else:
            lines.append(f"{pad}{key}: {_dump_scalar(value)}")


def dump_simple_yaml(data: dict) -> str:
    """Serialize a nested mapping to the subset :func:`parse_simple_yaml`
    reads (``None`` values and empty mappings are left out)."""
    lines: "list[str]" = []
    _dump_mapping(data, 0, lines)
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Field specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Rule:
    """A kind or a bound: ``test(value)`` must hold, and ``text`` is
    what the value "must be" in errors."""

    text: str
    test: Callable[[object], bool]


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


INT = Rule("an integer", _is_int)
NUMBER = Rule("a number", _is_number)
BOOL = Rule("a boolean", lambda value: isinstance(value, bool))
STR = Rule("a string", lambda value: isinstance(value, str))


@dataclass(frozen=True)
class _Optional:
    inner: object


@dataclass(frozen=True)
class _Sequence:
    inner: type


@dataclass(frozen=True)
class _MappingOf:
    inner: Rule


def optional(kind) -> _Optional:
    """``kind`` or ``None`` (a bound is not applied to ``None``)."""
    return _Optional(kind)


def sequence(spec: type) -> _Sequence:
    """A non-empty list or tuple of ``spec`` mappings (or instances),
    stored as a tuple of ``spec`` instances."""
    return _Sequence(spec)


def mapping_of(kind: Rule) -> _MappingOf:
    """A mapping of names to ``kind`` values (the bound applies to
    each value)."""
    return _MappingOf(kind)


def at_least(limit) -> Rule:
    return Rule(f">= {limit}", lambda value: value >= limit)


def above(limit) -> Rule:
    return Rule(f"> {limit}", lambda value: value > limit)


def one_of(choices: tuple) -> Rule:
    return Rule(f"one of {choices}", lambda value: value in choices)


#: The default wording of a field error (``what`` is the kind's or
#: the bound's text).
MESSAGE = "{path} must be {what}, got {value!r}"


def setting(
    kind,
    default=MISSING,
    bound: "Rule | None" = None,
    message: str = MESSAGE,
    factory=MISSING,
):
    """Declare one spec field: its kind, default (or ``factory``),
    bound, and the wording of an out-of-bound error (a format string
    over ``path``, ``what`` and ``value``; a value of the wrong kind
    always reads as :data:`MESSAGE`)."""
    return field(
        default=default,
        default_factory=factory,
        metadata={"kind": kind, "bound": bound, "message": message},
    )


def _checked(kind, bound, value, path: str, message: str):
    """``value`` as declared (nested mappings built into their spec,
    sequences into tuples), or an :class:`ExecutionError` naming the
    field, what it must be, and the value."""

    def fail(what: str, wording: str = MESSAGE):
        raise ExecutionError(wording.format(path=path, what=what, value=value))

    if isinstance(kind, _Optional):
        if value is None:
            return None
        kind = kind.inner
    if isinstance(kind, type):  # a nested spec
        if value is None or isinstance(value, dict):
            return build_spec(kind, value)
        if not isinstance(value, kind):
            fail(f"a {kind.section} mapping")
        return value
    if isinstance(kind, _Sequence):
        if not isinstance(value, (list, tuple)) or not value:
            fail(f"a non-empty sequence of {kind.inner.section} mappings")
        return tuple(
            _checked(kind.inner, None, item, f"{path}[{i}]", MESSAGE)
            for i, item in enumerate(value)
        )
    if isinstance(kind, _MappingOf):
        if not isinstance(value, dict):
            fail(f"a mapping of names to {kind.inner.text} values")
        for name, item in value.items():
            _checked(kind.inner, bound, item, f"{path}[{name!r}]", message)
        return value
    if not kind.test(value):
        fail(kind.text)
    if bound is not None and not bound.test(value):
        fail(bound.text, message)
    return value


class Spec:
    """Base of a declared config: a frozen dataclass whose fields come
    from :func:`setting`.

    ``section`` names the spec in errors (``unknown <section> key(s)``,
    ``<section>.<field> must be ...``); ``prefix`` overrides the field
    path's ``<section>.`` prefix; ``noun`` is what its keys are called.
    Every construction checks each declared field, then runs
    :meth:`check`.
    """

    section = ""
    prefix: "str | None" = None
    noun = "key"

    def __post_init__(self) -> None:
        prefix = f"{self.section}." if self.prefix is None else self.prefix
        for f in fields(self):
            kind = f.metadata.get("kind")
            if kind is None:
                continue
            value = getattr(self, f.name)
            checked = _checked(
                kind,
                f.metadata["bound"],
                value,
                prefix + f.name,
                f.metadata["message"],
            )
            if checked is not value:
                object.__setattr__(self, f.name, checked)
        self.check()

    def check(self) -> None:
        """Checks that read two or more fields, or parse a literal;
        runs after every declared field passed."""


def reject_unknown(data: dict, known, where: str, noun: str = "key") -> None:
    """The one unknown-key check: raise naming the unknown keys and
    the known set."""
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ExecutionError(
            f"unknown {where} {noun}(s) {unknown}; expected a subset of "
            f"{sorted(known)}"
        )


def build_spec(cls, data, base=None):
    """``cls`` built from a parsed mapping (``None`` reads as empty),
    over ``base``'s values when given."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ExecutionError(f"{cls.section} must be a mapping, got {data!r}")
    declared = fields(cls)
    reject_unknown(data, [f.name for f in declared], cls.section, cls.noun)
    if base is not None:
        return replace(base, **data)
    missing = [
        f.name
        for f in declared
        if f.name not in data
        and f.default is MISSING
        and f.default_factory is MISSING
    ]
    if missing:
        raise ExecutionError(
            f"{cls.section} needs key(s) {missing}, got {data!r}"
        )
    return cls(**data)


def as_mapping(spec) -> dict:
    """A spec as the plain nested mapping it builds from: nested specs
    as mappings, sequences as lists (the dump and JSON shape)."""
    out: dict = {}
    for f in fields(spec):
        value = getattr(spec, f.name)
        if isinstance(value, Spec):
            value = as_mapping(value)
        elif isinstance(value, tuple):
            value = [
                as_mapping(item) if isinstance(item, Spec) else item
                for item in value
            ]
        out[f.name] = value
    return out
