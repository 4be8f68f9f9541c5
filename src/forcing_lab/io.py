"""Reading and writing digraphs as JSON, and exporting Graphviz DOT.

The interchange document is a JSON object with required keys ``n`` (order)
and ``arcs`` (list of ``[tail, head]`` pairs), plus optional ``name`` and
``labels`` (one string per vertex, as produced by the line-digraph
operator; a repeated label is refused, since ``--set`` looks vertices up
by label).  Arcs are written in lexicographic order so serialisation is
deterministic.  Each entry of ``arcs`` is checked by :class:`Digraph`
itself, whose message is reported under ``key 'arcs' is invalid``.  A
file nested past the recursion limit, or with an integer past the
interpreter's digit limit, is refused as one that cannot be parsed.

A file above ``MAX_FILE_BYTES`` is refused with
:class:`ResourceLimitError` before it is read, so the memory of a parse
is bounded by the bound on the file, not by the file.  A file that opens
more objects and lists, or separates more values with commas, outside
its strings than a document of ``MAX_ARCS`` arcs and ``MAX_ORDER``
labels is refused the same way before it is parsed, so no parse builds
more values than a ``Digraph`` and its labels may hold.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

from .digraph import MAX_ARCS, MAX_ORDER, Digraph
from .errors import DomainError, ResourceLimitError

# The largest file read.  As the CLI writes a document, two spaces a
# level, the widest arc, ``[131071, 131071]``, takes 40 bytes, and each of
# the longest walk labels at order ``MAX_ORDER``, those of
# ``L^6(cycle(131072))``, 56 bytes; 64 KiB more are left for the rest.
# That is 28 MiB: a labelled ``L^16(K_2 + loops)`` takes 15 MiB.
MAX_FILE_BYTES = 40 * MAX_ARCS + 64 * MAX_ORDER + (1 << 16)

_ALLOWED_KEYS = {"n", "arcs", "name", "labels"}

# A JSON string literal once its escaped backslashes, and then its escaped
# quotes, are taken out: JSON pairs a run of backslashes from its left, as
# ``bytes.replace`` does, so every quote left opens or closes a string
# (UTF-8 puts no quote or backslash inside a multi-byte character).  The
# closing quote is optional, so each match succeeds where it starts and
# one pass is linear, even over a string that never closes.
_STRING = re.compile(rb'"[^"]*"?')


def digraph_to_json_dict(
    g: Digraph, labels: list[str] | None = None
) -> dict[str, object]:
    doc: dict[str, object] = {
        "n": g.n,
        "arcs": [[u, v] for u, v in g.arcs_sorted],
    }
    if g.name is not None:
        doc["name"] = g.name
    if labels is not None:
        if len(labels) != g.n:
            raise DomainError(f"expected {g.n} labels, got {len(labels)}")
        doc["labels"] = list(labels)
    return doc


def digraph_from_json_dict(doc: object) -> tuple[Digraph, list[str] | None]:
    """Parse a JSON document into a digraph plus optional vertex labels."""
    if not isinstance(doc, dict):
        raise DomainError("digraph document must be a JSON object")
    unknown = set(doc) - _ALLOWED_KEYS
    if unknown:
        raise DomainError(f"unknown key {sorted(unknown)[0]!r} in digraph document")
    if "n" not in doc:
        raise DomainError("digraph document missing key 'n'")
    if "arcs" not in doc:
        raise DomainError("digraph document missing key 'arcs'")
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise DomainError("key 'n' must be a positive integer")
    arcs = doc["arcs"]
    if not isinstance(arcs, list):
        raise DomainError("key 'arcs' must be a list of [tail, head] pairs")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise DomainError("key 'name' must be a string")
    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or any(
            not isinstance(x, str) for x in labels
        ):
            raise DomainError("key 'labels' must be a list of strings")
        if len(labels) != n:
            raise DomainError(f"key 'labels' must have {n} entries, got {len(labels)}")
        seen: set[str] = set()
        for label in labels:
            if label in seen:
                raise DomainError(f"key 'labels' repeats the label {label!r}")
            seen.add(label)
    try:
        g = Digraph(n, arcs, name=name)
    except DomainError as exc:
        raise DomainError(f"key 'arcs' is invalid: {exc}") from None
    return g, labels


def _over_the_value_bounds(text: bytes) -> bool:
    """Whether ``text`` opens or separates more values than a document of
    ``MAX_ARCS`` arcs and ``MAX_ORDER`` labels.

    Such a document opens ``MAX_ARCS + 3`` objects and lists (itself, one
    list per arc, ``arcs`` and ``labels``; they are counted together, so
    a small file with an object in ``arcs`` still reaches the parser and
    its message), and has 3 commas between its keys, ``2 MAX_ARCS - 1``
    in ``arcs`` and ``MAX_ORDER - 1`` in ``labels``.
    """
    return (
        text.count(b"{") + text.count(b"[") > MAX_ARCS + 3
        or text.count(b",") > 2 * MAX_ARCS + MAX_ORDER + 1
    )


def _holds_too_many_values(data: bytes) -> bool:
    """Whether ``data`` is over the value bounds outside its strings.

    Strings only add to the counts, so they are taken out only when the
    whole file is over.  A legal document has at most ``MAX_ORDER + 5``
    strings (its keys, name and labels), and ``re.sub`` keeps a piece per
    match, so the substitution stops there: the brackets and commas of
    any later string are counted as outside, which can only refuse a
    document that has more strings than that.
    """
    if not _over_the_value_bounds(data):
        return False
    unescaped = data.replace(b"\\\\", b"").replace(b'\\"', b"")
    return _over_the_value_bounds(
        _STRING.sub(b'""', unescaped, count=MAX_ORDER + 5)
    )


def read_digraph(path: str | Path) -> tuple[Digraph, list[str] | None]:
    try:
        with open(path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            if size <= MAX_FILE_BYTES:
                # A pipe or a device reports no size, so the read stops
                # one byte past the bound.
                data = handle.read(MAX_FILE_BYTES + 1)
                size = len(data)
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from None
    if size > MAX_FILE_BYTES:
        raise ResourceLimitError(
            f"{path} is above the input limit of {MAX_FILE_BYTES} bytes"
        )
    if _holds_too_many_values(data):
        raise ResourceLimitError(
            f"{path} holds more values than a document of {MAX_ARCS} arcs "
            f"and {MAX_ORDER} labels"
        )
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path}: not valid JSON ({exc.msg})") from None
    except RecursionError:
        raise DomainError(f"cannot parse {path}: JSON nested too deeply") from None
    except ValueError:  # an int past the interpreter's digit limit
        raise DomainError(
            f"cannot parse {path}: a number has too many digits"
        ) from None
    return digraph_from_json_dict(doc)


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(g: Digraph, labels: list[str] | None = None) -> str:
    """Render as Graphviz DOT, attaching vertex labels when given."""
    if labels is not None and len(labels) != g.n:
        raise DomainError(f"expected {g.n} labels, got {len(labels)}")
    lines = []
    title = _dot_quote(g.name) if g.name else "G"
    lines.append(f"digraph {title} {{")
    if labels is not None:
        for v in range(g.n):
            lines.append(f"  {v} [label={_dot_quote(labels[v])}];")
    else:
        # Bare statements keep isolated vertices visible.
        for v in range(g.n):
            if not (g._out[v] or g._in[v]):
                lines.append(f"  {v};")
    for u, v in g.arcs_sorted:
        lines.append(f"  {u} -> {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
