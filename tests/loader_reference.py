"""The line-by-line edge-list and label loaders that `topoinf.graphs` used
before it parsed in bulk: the reference its loaders must match, array for
array and error message for error message.

Each line is stripped and parsed on its own, in file order, and the first
line that breaks a rule raises; a header applies to the lines after it.
"""

import numpy as np

from topoinf.graphs import MAX_NODES, Graph, GraphFormatError, LabelData


def _iter_lines(text: str, comments: bool = False):
    """(line number, stripped line) of each non-blank line of every text
    format; '#' comment lines only with `comments`, for formats whose
    headers live in them."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and (comments or not line.startswith("#")):
            yield ln, line


def _parse_header(ln: int, line: str, key: str, declared):
    """N of a "# key=N" comment header, which must be at least 1 and the
    first such header (`declared` is the N of an earlier one, else None);
    None for any other comment."""
    body = line.lstrip("#").strip()
    if not body.startswith(key + "="):
        return None
    if declared is not None:
        raise GraphFormatError(f"line {ln}: repeated {key} header")
    try:
        got = int(body[len(key) + 1:])
    except ValueError:
        raise GraphFormatError(f"line {ln}: bad {key} header: {line!r}") from None
    if got < 1:
        raise GraphFormatError(f"line {ln}: {key}={got} must be at least 1")
    return got


def _parse_pair(ln: int, line: str, fields: str, noun: str):
    """The two integers of a "{fields}" record line; `noun` names its fields
    in the error for a non-integer one."""
    parts = line.split()
    if len(parts) != 2:
        raise GraphFormatError(f"line {ln}: expected {fields!r}, got {line!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphFormatError(f"line {ln}: non-integer {noun} in {line!r}") from None


def load_edge_list(text: str) -> Graph:
    """Parse "u v" pairs, one per line. '#' comments allowed; an optional
    "# nodes=N" header, given at most once, fixes the node count (otherwise
    max id + 1). Either count must not exceed MAX_NODES."""
    edges = []
    declared_n = None
    saw_content = False
    for ln, line in _iter_lines(text, comments=True):
        if line.startswith("#"):
            got = _parse_header(ln, line, "nodes", declared_n)
            if got is not None:
                if got > MAX_NODES:
                    raise GraphFormatError(
                        f"line {ln}: nodes={got} exceeds the limit of {MAX_NODES} nodes")
                declared_n = got
                saw_content = True
            continue
        u, v = _parse_pair(ln, line, "u v", "node id")
        if u < 0 or v < 0:
            raise GraphFormatError(f"line {ln}: negative node id in {line!r}")
        if u == v:
            raise GraphFormatError(f"line {ln}: self-loop at node {u}")
        edges.append((u, v))
        saw_content = True
    if not saw_content:
        raise GraphFormatError("empty edge-list input")
    max_id = max((max(u, v) for u, v in edges), default=-1)
    n = declared_n if declared_n is not None else max_id + 1
    if declared_n is not None and max_id >= declared_n:
        raise GraphFormatError(f"node id {max_id} exceeds declared nodes={declared_n}")
    if n > MAX_NODES:
        raise GraphFormatError(
            f"node id {max_id} implies nodes={n}, over the limit of {MAX_NODES} nodes")
    return Graph.from_edges(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))


def load_labels(text: str, n: int) -> LabelData:
    """Parse "node class" lines; unlisted nodes get label -1 (unknown).

    An optional "# classes=c" header, given at most once, declares the class
    count; without it, c is inferred as max class + 1 (so at least one labeled
    node is required).
    """
    declared_c = None
    labels = np.full(n, -1, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    for ln, line in _iter_lines(text, comments=True):
        if line.startswith("#"):
            declared_c = _parse_header(ln, line, "classes", declared_c) or declared_c
            continue
        node, cls = _parse_pair(ln, line, "node class", "field")
        if not 0 <= node < n:
            raise GraphFormatError(f"line {ln}: node {node} outside [0, {n})")
        if cls < 0:
            raise GraphFormatError(f"line {ln}: negative class id")
        if declared_c is not None and cls >= declared_c:
            raise GraphFormatError(
                f"line {ln}: class {cls} outside declared classes={declared_c}")
        if seen[node]:
            raise GraphFormatError(f"line {ln}: duplicate label for node {node}")
        seen[node] = True
        labels[node] = cls
    if declared_c is None:
        if not seen.any():
            raise GraphFormatError("no labels and no '# classes=c' header")
        declared_c = int(labels.max()) + 1
    return LabelData(declared_c, labels)
