"""Property-based fuzzing of every parser and stage reader: whatever the
bytes, only the documented input errors may escape (the CLI turns those into
exit 1 with a message), never a traceback-producing exception."""

import io
import json
import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import DictVenueGraph
from venuenet.community import read_partition
from venuenet.corpus import parse_dblp_xml, parse_jsonl
from venuenet.exports import _GRAPHML_NS, export_graph, finite_float, import_graph, read_table, write_table
from venuenet.linkage import MATCHES_HEADER, read_matches
from venuenet.networks import CouplingMatrix
from venuenet.pipeline import PipelineConfig

INPUT_ERRORS = (ValueError,)

FUZZ = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])

RECORD_KEYS = ["id", "title", "authors", "venue", "year", "refs", "venue_key", "name", "kind", "source",
               "format", "directed", "nodes", "edges", "venues", "vectors", "publication_counts"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(["journal", "metadata-corpus", "venuenet-graph/1", "p1", "v1"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(RECORD_KEYS) | st.text(max_size=4), children, max_size=5),
    max_leaves=12,
)

# pieces of well-formed input, shuffled into the ill-formed
fragments = st.sampled_from(
    ["\t", "\n", "#", "#node\t", " ", "=", ",", "nan", "-1", "0", "1e999", "1.5", "a", "b", "{}", "[1]",
     '{"key": 1}', "[" * 3000, "9" * 5000, "\x00", "\udcff", "é"]
) | st.text(max_size=6)
texts = st.lists(fragments, max_size=30).map("".join)


def _encode(text: str) -> bytes:
    return text.encode("utf-8", "surrogateescape")  # "\udcff" becomes the invalid byte 0xff


def _only_input_errors(fn, *args):
    try:
        fn(*args)
    except INPUT_ERRORS:
        pass


def _from_file(reader, data: bytes):
    fd, path = tempfile.mkstemp()
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        _only_input_errors(reader, path)
    finally:
        os.unlink(path)


@FUZZ
@given(st.lists(json_values.map(json.dumps).map(str.encode) | st.binary(max_size=20) | texts.map(_encode), max_size=6))
def test_parse_jsonl(lines):
    _only_input_errors(parse_jsonl, io.BytesIO(b"\n".join(lines)))


XML_PIECES = st.sampled_from(
    ["<dblp>", "</dblp>", '<article key="journals/j/a1">', '<inproceedings key="conf/c/b2">', "</article>",
     "</inproceedings>", "<article>", '<article key="">', "<title>", "</title>", "<author>", "</author>",
     "<year>", "</year>", "<cite>", "</cite>", "<journal>", "</journal>", "1995", "99999", "x" * 3,
     "&amp;", "&bogus;", "<![CDATA[", "]]>", "<?xml version='1.0' encoding='foo'?>", "\x00"]
) | st.text(max_size=5)


@FUZZ
@given(st.lists(XML_PIECES, max_size=40).map("".join) | st.binary(max_size=40).map(lambda b: b.decode("latin-1")))
def test_parse_dblp_xml(text):
    _only_input_errors(parse_dblp_xml, io.BytesIO(_encode(text)))


CONFIG_KEYS = st.sampled_from(["schema", "metadata_corpus", "cosine_min", "pagerank_max_iter", "slice_years",
                               "histogram_bins", "citation_min", "mystery"]) | st.text(max_size=5)


@FUZZ
@given(st.lists(st.tuples(CONFIG_KEYS, texts), max_size=8), texts)
def test_pipeline_config_from_text(pairs, tail):
    _only_input_errors(PipelineConfig.from_text, "".join(f"{k} = {v}\n" for k, v in pairs) + tail)


@FUZZ
@given(texts)
def test_edge_tsv_reader(body):
    _only_input_errors(import_graph, _encode("# venuenet-graph directed=true\n" + body), "edge-tsv")
    _only_input_errors(import_graph, _encode(body), "edge-tsv")


@FUZZ
@given(json_values, json_values, st.booleans())
def test_json_graph_reader(nodes, edges, directed):
    doc = {"format": "venuenet-graph/1", "directed": directed, "nodes": nodes, "edges": edges}
    _only_input_errors(import_graph, json.dumps(doc).encode(), "json")
    _only_input_errors(import_graph, json.dumps(nodes).encode(), "json")


@FUZZ
@given(json_values, json_values, json_values, texts)
def test_coupling_matrix_reader(venues, vectors, counts, raw):
    doc = {"venues": venues, "vectors": vectors, "publication_counts": counts}
    _only_input_errors(CouplingMatrix.from_json, json.dumps(doc))
    _only_input_errors(CouplingMatrix.from_json, raw)


@FUZZ
@given(texts, st.booleans())
def test_matches_reader(body, with_header):
    _from_file(read_matches, _encode((MATCHES_HEADER + "\n" if with_header else "") + body))


@FUZZ
@given(texts)
def test_partition_reader(body):
    _from_file(read_partition, _encode(body))


GRAPHML_PIECES = st.sampled_from(
    ["<graphml>", f'<graphml xmlns="{_GRAPHML_NS}">', "</graphml>", '<graph edgedefault="directed">', "<graph>",
     '<graph edgedefault="undirected">',
     "</graph>", '<key id="d0" for="node" attr.name="n" attr.type="long"/>',
     '<key id="d1" for="edge" attr.name="weight" attr.type="double"/>', '<key id="d2" attr.name="b" attr.type="boolean"/>',
     '<key id="d3" attr.name="x"/>', '<key attr.name="y"/>', '<key id="d4"/>', '<node id="a">', '<node id="b"/>', "<node>",
     "</node>", '<edge source="a" target="b">', '<edge source="a" target="a">', '<edge source="a">', "</edge>", "<edge/>",
     '<data key="d0">', '<data key="d1">', '<data key="d3">', '<data key="d9">', "<data>", "</data>", '<data key="d1"/>',
     "1", "-1", "0", "x", "nan", "1e999", "9" * 5000, "&amp;", "&bogus;", "<![CDATA[", "]]>", "\x00", "\udcff"]
) | st.text(max_size=5)


@FUZZ
@given(st.lists(GRAPHML_PIECES, max_size=40).map("".join))
def test_graphml_reader(text):
    _only_input_errors(import_graph, _encode(text), "graphml")


# Any text, with the characters XML 1.0 cannot carry (controls other than
# tab, LF and CR, lone surrogates, U+FFFE and U+FFFF) and those it carries
# only escaped drawn often.
any_text = st.text(st.characters(blacklist_categories=())
                   | st.sampled_from("\t\n\r&<>\"'\x00\x01\x1f\x7f\x85\u2028\ud800\udfff\ufffe\uffff"), max_size=6)
ATTR_VALUES = {
    "count": st.integers(-(2**63), 2**63),
    "score": st.floats(allow_nan=False),
    "flag": st.booleans(),
    "label": any_text,
}


def xml_carries(text: str) -> bool:
    """Whether every character of `text` is an XML 1.0 Char."""
    return all(
        c in "\t\n\r" or " " <= c < "\ud800" or "\ue000" <= c < "\ufffe" or c >= "\U00010000" for c in text
    )


@st.composite
def graphs(draw):
    """A graph builder: its VenueGraph is `venue_graph()`."""
    g = DictVenueGraph(directed=draw(st.booleans()))
    nodes = draw(st.lists(any_text, unique=True, max_size=8))
    names = draw(st.lists(st.sampled_from(sorted(ATTR_VALUES)), unique=True))
    for node in nodes:
        g.add_node(node, **{name: draw(ATTR_VALUES[name]) for name in names if draw(st.booleans())})
    if len(nodes) > 1:
        for u, v in draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)), max_size=12)):
            if u != v:
                g.add_edge(u, v, draw(st.floats(min_value=1e-300, allow_infinity=False)))
    return g


@FUZZ
@given(graphs())
def test_graphml_round_trip(g):
    """Export refuses exactly the graphs holding text XML 1.0 cannot carry
    and round-trips every other."""
    g = g.venue_graph()
    texts = [*g.nodes, *(str(value) for attrs in g.nodes.values() for value in attrs.values())]
    try:
        data = export_graph(g, "graphml")
    except ValueError:
        assert not all(map(xml_carries, texts))
        return
    assert all(map(xml_carries, texts))
    assert import_graph(data, "graphml") == g


def tsv_carries(name: str) -> bool:
    """Whether an edge TSV row can hold node `name`: no leading '#' (a
    comment), no tab, no `str.splitlines` break and no lone surrogate."""
    return (
        not name.startswith("#")
        and "\t" not in name
        and len(f"x{name}x".splitlines()) == 1
        and not any("\ud800" <= c <= "\udfff" for c in name)
    )


@FUZZ
@given(graphs(), st.lists(st.sampled_from(["#", "#node", "a#", "\t", "\x1c", "\x1d", "\x1e", "\u2028", " "]), max_size=3))
def test_edge_tsv_round_trip(g, extra):
    """Export refuses exactly the graphs with a node an edge TSV cannot
    carry and round-trips every other."""
    for name in extra:
        g.add_node(name)
    g = g.venue_graph()
    try:
        data = export_graph(g, "edge-tsv")
    except ValueError:
        assert not all(map(tsv_carries, g.nodes))
        return
    assert all(map(tsv_carries, g.nodes))
    assert import_graph(data, "edge-tsv") == g


# a table cell: any text without a tab, a line feed or a lone surrogate (UTF-8 has none)
cells = st.text(st.characters(blacklist_characters="\t\n", blacklist_categories=("Cs",)), max_size=8)


@FUZZ
@given(st.dictionaries(cells.filter(bool), st.tuples(cells, st.floats(allow_nan=False, allow_infinity=False)), max_size=20),
       st.floats(allow_nan=False, allow_infinity=False))
def test_table_round_trip(table, q):
    """write_table then read_table gives back every row and setting: keys
    are any non-empty cell, floats any finite float, bit for bit."""
    rows = [[key, label, value] for key, (label, value) in table.items()]
    fd, path = tempfile.mkstemp()
    os.close(fd)
    try:
        write_table(path, "id\tlabel\tvalue", rows, comment=f"q={q!r}")
        settings, again = read_table(path, "id\tlabel\tvalue", "test", key=("id",), parse={"value": finite_float, "q": float})
    finally:
        os.unlink(path)
    assert again == rows and settings == {"q": q}
    assert [repr(r[2]) for r in again] == [repr(r[2]) for r in rows]  # -0.0 stays -0.0
