"""Graph serialization: GraphML, edge TSV, and JSON, each with a matching
importer so export/import round-trips reproduce the graph exactly. The
writers produce a document line by line, nodes and edges in the graph's
(name) order, so `write_graph` streams it to its file.

The TSV dialect keeps the edge rows as plain (source, target, weight) so
naive TSV consumers work unchanged; directedness and node attributes ride
along in `#`-prefixed comment lines. Every result table has one TSV format,
written by `write_table` and read by `read_table`.
"""

from __future__ import annotations

import json
import math
import os
import re
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .graph import VenueGraph

FORMATS = ("graphml", "edge-tsv", "json")

_GRAPHML_NS = "http://graphml.graphdrawing.org/xmlns"


def export_graph(g: VenueGraph, format: str) -> bytes:
    """`g`, its node attributes included, in `format`."""
    return "".join(_lines(g, format)).encode("utf-8")


def write_graph(g: VenueGraph, path, format: str = "edge-tsv") -> None:
    """Write export_graph(g, format) to `path`, line by line. A graph the
    format cannot carry raises ValueError and leaves no file."""
    lines = _lines(g, format)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(lines)
    except ValueError:
        os.remove(path)
        raise


def _lines(g: VenueGraph, format: str) -> Iterator[str]:
    """The lines of `g` in `format`; an unknown format raises at once."""
    if format == "graphml":
        return _to_graphml(g)
    if format == "edge-tsv":
        return _to_tsv(g)
    if format == "json":
        return _to_json(g)
    raise ValueError(f"unknown export format {format!r}")


def import_graph(data: bytes, format: str) -> VenueGraph:
    """The graph of the document `data` in `format`; a malformed one raises
    ValueError naming where it is."""
    parse = {"graphml": _from_graphml, "edge-tsv": _from_tsv, "json": _from_json}.get(format)
    if parse is None:
        raise ValueError(f"unknown export format {format!r}")
    return parse(decode_text(data))


def load_graph(path, format: str = "edge-tsv") -> VenueGraph:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return import_graph(data, format)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _graph(directed: bool, nodes: list, edges: list, places=("node {0!r}", "edge {0!r} -> {1!r}")) -> VenueGraph:
    """The graph of `nodes`, each (name, attrs, ...), and `edges`, each (u,
    v, weight or its text, ...), given in any order; a node named only by an
    edge has no attributes. `places` formats the place of a node and of an
    edge in the document from its fields, by default by its names. A weight
    that is not a finite number > 0, a self-loop, and a node or an edge
    given twice (an undirected one either way round) raise ValueError
    naming the place of the later one."""
    node_place, edge_place = places
    declared, seen, weights = {}, {}, []
    for node in nodes:
        first = declared.setdefault(node[0], node)
        if first is not node:
            raise ValueError(f"{node_place.format(*node)}: repeats {node_place.format(*first)}")
    for edge in edges:
        u, v, w = edge[:3]
        try:
            w = float(w)
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{edge_place.format(*edge)}: {exc}") from None
        if u == v:
            raise ValueError(f"{edge_place.format(*edge)}: self-loop on {u!r} not allowed")
        if not 0 < w < math.inf:
            raise ValueError(f"{edge_place.format(*edge)}: edge weight must be finite and > 0, got {w!r}")
        first = seen.setdefault((u, v) if directed or u < v else (v, u), edge)
        if first is not edge:
            raise ValueError(f"{edge_place.format(*edge)}: repeats {edge_place.format(*first)}")
        weights.append(w)
    names = sorted(declared.keys() | {name for pair in seen for name in pair})
    index = dict(zip(names, range(len(names))))
    tails = np.fromiter((index[u] for u, _ in seen), np.int64, len(seen))
    heads = np.fromiter((index[v] for _, v in seen), np.int64, len(seen))
    weights = np.array(weights, dtype=np.float64)
    if not directed:
        tails, heads, weights = np.r_[tails, heads], np.r_[heads, tails], np.r_[weights, weights]
    order = np.lexsort((heads, tails))
    attrs = [declared[name][1] if name in declared else {} for name in names]
    return VenueGraph.from_arcs(names, tails[order], heads[order], weights[order], directed, attrs)


# -- GraphML ---------------------------------------------------------------


def _attr_type(values: list) -> str:
    if all(isinstance(v, bool) for v in values):
        return "boolean"
    if all(isinstance(v, int) and not isinstance(v, bool) for v in values):
        return "long"
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        return "double"
    return "string"


def _format_attr(value, attr_type: str) -> str:
    if attr_type == "boolean":
        return "true" if value else "false"
    if attr_type == "double":
        return repr(float(value))
    return str(value)


def _parse_attr(text: str, attr_type: str):
    if attr_type == "boolean":
        return text == "true"
    if attr_type in ("long", "int"):
        return int(text)
    if attr_type in ("double", "float"):
        return float(text)
    return text


_ATTRIB_ESCAPES = (
    ("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ('"', "&quot;"),
    ("\r", "&#13;"), ("\n", "&#10;"), ("\t", "&#09;"),
)
# A carriage return in element text would read back as a line feed.
_TEXT_ESCAPES = (*_ATTRIB_ESCAPES[:3], ("\r", "&#13;"))

# What XML 1.0 cannot carry, not even as a character reference (compiled on first use).
_NOT_XML = "[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]"


def _escape(text: str, escapes=_ATTRIB_ESCAPES) -> str:
    """ElementTree's escaping of an attribute value (or, with
    _TEXT_ESCAPES, of element text, plus a carriage return)."""
    for char, entity in escapes:
        if char in text:
            text = text.replace(char, entity)
    return text


def _check_xml(text: str, where: str) -> str:
    bad = re.search(_NOT_XML, text)
    if bad:
        raise ValueError(f"{where}: {bad.group()!r} cannot be written in XML 1.0")
    return text


def _to_graphml(g: VenueGraph) -> Iterator[str]:
    """The lines of the document ElementTree writes for the GraphML tree of
    `g`, indented by `ET.indent`, except that a carriage return in data text
    is a character reference. A node or attribute holding what XML 1.0
    cannot carry raises ValueError naming it."""
    nodes = g.nodes
    attr_values: dict[str, list] = {}
    for attrs in nodes.values():
        for name, value in attrs.items():
            attr_values.setdefault(name, []).append(value)
    attr_types = {name: _attr_type(values) for name, values in sorted(attr_values.items())}

    yield "<?xml version='1.0' encoding='utf-8'?>\n"
    yield f'<graphml xmlns="{_GRAPHML_NS}">\n'
    key_ids: dict[str, str] = {}
    for i, (name, attr_type) in enumerate(attr_types.items()):
        key_ids[name] = f"d{i}"
        attr_name = _escape(_check_xml(name, f"attribute {name!r}"))
        yield f'  <key for="node" attr.name="{attr_name}" attr.type="{attr_type}" id="d{i}" />\n'
    weight_key = f"d{len(key_ids)}"
    yield f'  <key for="edge" attr.name="weight" attr.type="double" id="{weight_key}" />\n'

    graph = f'  <graph edgedefault="{"directed" if g.directed else "undirected"}"'
    if not nodes:
        yield graph + " />\n"
    else:
        yield graph + ">\n"
        ids = {node: _escape(_check_xml(node, f"node {node!r}")) for node in nodes}
        for node, attrs in nodes.items():
            if not attrs:
                yield f'    <node id="{ids[node]}" />\n'
                continue
            yield f'    <node id="{ids[node]}">\n'
            for name in sorted(attrs):
                text = _format_attr(attrs[name], attr_types[name])
                text = _escape(_check_xml(text, f"attribute {name!r} of node {node!r}"), _TEXT_ESCAPES)
                data = f'      <data key="{key_ids[name]}"'
                yield f"{data}>{text}</data>\n" if text else data + " />\n"
            yield "    </node>\n"
        for u, v, w in g.edges():
            yield (
                f'    <edge source="{ids[u]}" target="{ids[v]}">\n'
                f'      <data key="{weight_key}">{w!r}</data>\n'
                "    </edge>\n"
            )
        yield "  </graph>\n"
    yield "</graphml>"


def _from_graphml(text: str) -> VenueGraph:
    """The graph of a GraphML document. A malformed one raises ValueError
    naming the problem and where it is: a line and column, or the node or
    edge."""
    import xml.etree.ElementTree as ET  # here, so that only a GraphML read imports it

    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:  # its message ends with the line and column
        raise ValueError(f"XML syntax error: {exc}") from None
    ns = {"g": _GRAPHML_NS}
    keys: dict[str, tuple[str, str]] = {}  # key id -> (attr name, attr type)
    for key_el in root.findall("g:key", ns):
        key_id, name = key_el.get("id"), key_el.get("attr.name")
        if key_id is None or name is None:
            raise ValueError(f"<key id={key_id!r} attr.name={name!r}>: needs both an id and an attr.name")
        if key_id in keys:
            raise ValueError(f"<key id={key_id!r}>: the id is declared twice")
        keys[key_id] = (name, key_el.get("attr.type", "string"))
    graph_el = root.find("g:graph", ns)
    if graph_el is None:
        raise ValueError("GraphML document has no graph element")

    def data_of(el, where: str):
        """(attr name, attr type, text) of each data child of `el`, each attribute once."""
        names = set()
        for data_el in el.findall("g:data", ns):
            key_id = data_el.get("key")
            if key_id not in keys:
                raise ValueError(f"{where}: data key {key_id!r} is not declared by any <key>")
            name, attr_type = keys[key_id]
            if name in names:
                raise ValueError(f"{where}: attribute {name!r} is given twice")
            names.add(name)
            yield name, attr_type, data_el.text or ""

    edgedefault = graph_el.get("edgedefault")
    if edgedefault not in ("directed", "undirected"):
        raise ValueError(f"<graph edgedefault={edgedefault!r}>: must be 'directed' or 'undirected'")
    nodes = []
    for node_el in graph_el.findall("g:node", ns):
        node = node_el.get("id")
        if node is None:
            raise ValueError("<node> without an id")
        attrs = {}
        for name, attr_type, text in data_of(node_el, f"node {node!r}"):
            try:
                attrs[name] = _parse_attr(text, attr_type)
            except ValueError:
                raise ValueError(f"node {node!r}: {name!r} is not a valid {attr_type}: {text!r}") from None
        nodes.append((node, attrs))
    edges = []
    for edge_el in graph_el.findall("g:edge", ns):
        u, v = edge_el.get("source"), edge_el.get("target")
        where = f"edge {u!r} -> {v!r}"
        if u is None or v is None:
            raise ValueError(f"{where}: needs a source and a target")
        weight = 1.0
        for name, _, text in data_of(edge_el, where):
            if name == "weight":
                weight = text
        edges.append((u, v, weight))
    return _graph(edgedefault == "directed", nodes, edges)


# -- edge TSV ---------------------------------------------------------------


# What a node of an edge TSV cannot hold: a tab splits a row, a
# `str.splitlines` break ends it, and UTF-8 has no lone surrogates.
_NOT_TSV = "[\t\n\x0b\x0c\r\x1c-\x1e\x85\u2028\u2029\ud800-\udfff]"


def _to_tsv(g: VenueGraph) -> Iterator[str]:
    """The lines of the edge TSV of `g`. A node name the reader would split,
    or take for a comment, raises ValueError naming it before any line is
    given."""
    nodes = g.nodes
    for node in nodes:
        bad = re.search(_NOT_TSV, node)
        if bad or node.startswith("#"):
            what = repr(bad.group()) if bad else "a leading '#'"
            raise ValueError(f"node {node!r}: {what} cannot be written in edge TSV")
    attrs = json.JSONEncoder(sort_keys=True).encode  # json.dumps(..., sort_keys=True), built once
    yield f"# venuenet-graph directed={'true' if g.directed else 'false'}\n"
    yield from (f"#node\t{node}\t{attrs(values)}\n" for node, values in nodes.items())
    yield from (f"{u}\t{v}\t{w!r}\n" for u, v, w in g.edges())


_TSV_HEADERS = {"# venuenet-graph directed=false": False, "# venuenet-graph directed=true": True}


def _from_tsv(text: str) -> VenueGraph:
    lines = text.splitlines()
    directed = _TSV_HEADERS.get(lines[0] if lines else "")
    if directed is None:
        raise ValueError(f"line 1: the header must be {' or '.join(map(repr, _TSV_HEADERS))}")
    nodes, edges = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        try:
            if line.startswith("#node\t"):
                _, node, attrs = _fields(line, 3, "#node line")
                nodes.append((_tsv_name(node), _attr_object(attrs), lineno))
            elif not line.startswith("#"):
                u, v, w = _fields(line, 3, "edge row")
                edges.append((u, _tsv_name(v), w, lineno))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return _graph(directed, nodes, edges, ("line {2}", "line {3}"))


def _fields(line: str, count: int, what: str) -> list[str]:
    fields = line.split("\t", count - 1)
    if len(fields) != count:
        raise ValueError(f"{what} needs {count} tab-separated fields, got {len(fields)}")
    return fields


def _tsv_name(node: str) -> str:
    """`node`, unless it starts with `#`, which the writer refuses: a row
    starting with it would be read as a comment (as a row whose source
    node starts with `#` is)."""
    if node.startswith("#"):
        raise ValueError(f"node {node!r}: a leading '#' cannot be read from edge TSV")
    return node


def _attr_object(text: str) -> dict:
    try:
        attrs = json.loads(text)
    except RecursionError:
        raise ValueError("node attributes nested too deeply") from None
    if not isinstance(attrs, dict):
        raise ValueError(f"node attributes must be a JSON object, got {text!r}")
    return attrs


# -- JSON -------------------------------------------------------------------


def _to_json(g: VenueGraph) -> Iterator[str]:
    obj = {
        "format": "venuenet-graph/1",
        "directed": g.directed,
        "nodes": [list(item) for item in g.nodes.items()],
        "edges": [list(edge) for edge in g.edges()],
    }
    yield json.dumps(obj, sort_keys=True, indent=0) + "\n"


def _unique_keys(pairs: list) -> dict:
    """The object of `pairs`, refusing a key given twice."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} is given twice")
        obj[key] = value
    return obj


def _from_json(text: str) -> VenueGraph:
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    except ValueError as exc:
        raise ValueError(f"invalid JSON ({exc})") from None
    if not isinstance(obj, dict) or obj.get("format") != "venuenet-graph/1":
        raise ValueError("not a venuenet-graph/1 JSON object")
    nodes, edges = obj.get("nodes"), obj.get("edges")
    if not _rows_of(nodes, (str, dict)) or not _rows_of(edges, (str, str, (int, float))):
        raise ValueError("'nodes' must list [name, attributes] and 'edges' [source, target, weight]")
    for u, v, w in edges:
        if isinstance(w, bool):
            raise ValueError(f"edge {u!r} -> {v!r}: weight must be a number, got {json.dumps(w)}")
    directed = obj.get("directed")
    if not isinstance(directed, bool):
        raise ValueError(f"'directed' must be true or false, got {directed!r}")
    return _graph(directed, nodes, edges)


def _rows_of(items, types: tuple) -> bool:
    """Whether `items` is a list of lists whose fields have `types`."""
    return isinstance(items, list) and all(
        isinstance(item, list) and len(item) == len(types) and all(map(isinstance, item, types)) for item in items
    )


# -- TSV tables -------------------------------------------------------------


def write_table(path, header: str, rows: Iterable[Sequence], comment: str | None = None) -> None:
    """`# comment` (when given), `header`, then each row's cells joined by
    tabs: a float as its repr, None as an empty cell, anything else by str."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# {comment}\n{header}\n" if comment is not None else header + "\n")
        fh.writelines("\t".join(["" if v is None else repr(v) if isinstance(v, float) else str(v) for v in row]) + "\n"
                      for row in rows)


def finite_float(text: str) -> float:
    """float(text), refusing NaN and the infinities with ValueError."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def unit_float(text: str, what: str) -> float:
    """finite_float(text), refusing a value outside [0, 1] with ValueError
    that names it as `what`."""
    value = finite_float(text)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{what} {text!r} is outside [0, 1]")
    return value


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def decode_text(data: bytes, path=None) -> str:
    """`data` as UTF-8 text, the one decode of every input but a corpus;
    other bytes raise ValueError naming the line (after `path`, if given)."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        where = "" if path is None else f"{path}: "
        raise ValueError(f"{where}line {line}: invalid UTF-8 at byte {exc.start}") from None


def read_text(path) -> str:
    """The text of the UTF-8 file `path`; other bytes raise ValueError naming the file and line."""
    with open(path, "rb") as fh:
        return decode_text(fh.read(), path)


def read_table(path, header: str, name: str, key: Sequence[str], parse: dict[str, Callable], headerless=False):
    """(settings, rows) of the `name` table `path`: UTF-8 with LF line ends,
    `#` comment lines only before the `header` line (which `headerless`
    makes optional), then rows of as many tab-separated fields as the
    header, whose `key` columns are non-empty and together unique. `parse`
    reads the cells of a column and a comment's `name=value` settings."""
    lines = read_text(path).split("\n")
    if not lines[-1]:
        lines.pop()  # what follows the last line end
    columns = header.split("\t")
    parsers = [(columns.index(column), fn) for column, fn in parse.items() if column in columns]
    keys = [columns.index(column) for column in key]
    settings, rows, seen, lineno = {}, [], {}, 1
    try:
        while lineno <= len(lines) and lines[lineno - 1].startswith("#"):
            for setting, value in re.findall(r"(\S+?)=(\S*)", lines[lineno - 1][1:]):
                settings[setting] = parse.get(setting, str)(value)
            lineno += 1
        if lines[lineno - 1 : lineno] == [header]:
            lineno += 1
        elif not headerless:
            raise ValueError(f"unexpected {name} header: {(lines[lineno - 1 :] or [''])[0]!r}")
        for lineno, line in enumerate(lines[lineno - 1 :], start=lineno):
            fields = line.split("\t")
            if len(fields) != len(columns):
                raise ValueError(f"expected {len(columns)} tab-separated fields, got {len(fields)}")
            for i, fn in parsers:
                fields[i] = fn(fields[i])
            row_key = tuple(fields[i] for i in keys)
            if not all(row_key):
                raise ValueError(f"empty {columns[keys[row_key.index('')]]}")
            if seen.setdefault(row_key, lineno) != lineno:
                named = ", ".join(f"{columns[i]} {fields[i]!r}" for i in keys)
                raise ValueError(f"{named} repeats line {seen[row_key]}")
            rows.append(fields)
    except ValueError as exc:
        raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return settings, rows
