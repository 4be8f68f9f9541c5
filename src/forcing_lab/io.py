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
is bounded by the bound on the file, not by the file.
"""

from __future__ import annotations

import json
import os
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
