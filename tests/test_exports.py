import json
import math
import random
import re
import tracemalloc

import pytest

from oracles import DictVenueGraph, graphml_et, neighbors
from venuenet.exports import _GRAPHML_NS, FORMATS, export_graph, finite_float, import_graph, read_table, write_graph, write_table
from venuenet.graph import VenueGraph


def weighted_triangle():
    g = DictVenueGraph()
    g.add_node("v1", publication_count=10)
    g.add_node("v2", publication_count=20)
    g.add_node("v3", publication_count=5)
    g.add_edge("v1", "v2", 0.5)
    g.add_edge("v2", "v3", 0.25)
    g.add_edge("v1", "v3", 0.125)
    return g.venue_graph()


def directed_two_cycle():
    g = DictVenueGraph(directed=True)
    g.add_edge("a", "b", 2.0)
    g.add_edge("b", "a", 3.0)
    return g.venue_graph()


def clustered_graph():
    g = DictVenueGraph()
    g.add_node("v1", publication_count=3, cluster="c1", kind="journal")
    g.add_node("v2", publication_count=4, cluster="c1", kind="conference")
    g.add_node("v3", publication_count=1, cluster="c2", kind="journal")
    g.add_edge("v1", "v2", 0.7071067811865476)
    return g.venue_graph()


def graph_with_isolate():
    g = DictVenueGraph()
    g.add_edge("a", "b", 1.0)
    g.add_node("loner", publication_count=0)
    return g.venue_graph()


ALL_GRAPHS = [weighted_triangle, directed_two_cycle, clustered_graph, graph_with_isolate]


class TestRoundTrips:
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("make", ALL_GRAPHS, ids=lambda f: f.__name__)
    def test_import_export_identity(self, fmt, make):
        g = make()
        again = import_graph(export_graph(g, fmt), fmt)
        assert again == g
        assert again.directed == g.directed
        assert again.nodes == g.nodes
        assert list(again.edges()) == list(g.edges())

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_weights_preserved_exactly(self, fmt):
        g = DictVenueGraph()
        g.add_edge("a", "b", 0.1)  # not dyadic; repr round-trip must still be exact
        g.add_edge("a", "c", 1e-9)
        again = import_graph(export_graph(g.venue_graph(), fmt), fmt)
        assert neighbors(again, "a")["b"] == 0.1
        assert neighbors(again, "a")["c"] == 1e-9


class TestGraphML:
    def test_edgedefault_directed(self):
        data = export_graph(directed_two_cycle(), "graphml").decode("utf-8")
        assert 'edgedefault="directed"' in data
        assert data.count("<edge") == 2

    def test_node_attribute_keys_declared(self):
        data = export_graph(clustered_graph(), "graphml").decode("utf-8")
        assert 'attr.name="cluster"' in data
        assert 'attr.name="publication_count"' in data
        assert 'attr.type="long"' in data
        assert 'attr.name="weight"' in data

    def test_cluster_attribute_present_for_all_nodes(self):
        g = clustered_graph()
        again = import_graph(export_graph(g, "graphml"), "graphml")
        for node in again.nodes:
            assert "cluster" in again.nodes[node]
            assert "publication_count" in again.nodes[node]


ODD_NAMES = ["a&b", "<tag>", 'say "hi"', "it's", "tab\there", "new\nline", "cr\rlf", "caf\u00e9 \u2603 \U0001f600", "&amp;", "]]>", " "]


# The odd names an edge TSV can carry: no tab, no line break.
TSV_ODD_NAMES = [name for name in ODD_NAMES if not re.search("[\t\n\r]", name)]


def odd_graph(directed: bool, names: list[str] = ODD_NAMES) -> VenueGraph:
    """Names and values that ElementTree escapes, every attribute type, and
    nodes with and without attributes."""
    g = DictVenueGraph(directed=directed)
    for i, name in enumerate(names):
        g.add_node(name)
        if i % 3:
            g.add_node(
                name,
                flag=i % 2 == 0,  # boolean
                count=i,  # long
                ratio=i / 7 if i % 2 else i,  # double: ints and floats mixed
                label=name,  # string
                mixed=True if i % 2 else 5,  # string: bools and ints mixed
                blank="" if i % 4 else "  ",  # empty and whitespace-only text
                **{"odd <name> & \"key\"": 1.5},
            )
    for i, u in enumerate(names):
        for v in names[i + 1 :: 3]:
            g.add_edge(u, v, 1.0 / (i + 3))
            if directed:
                g.add_edge(v, u, 2.0 + i)
    return g.venue_graph()


class TestGraphMLWriter:
    """The direct writer gives ElementTree's bytes, indentation included."""

    @pytest.mark.parametrize("make", ALL_GRAPHS, ids=lambda f: f.__name__)
    def test_fixture_graphs(self, make):
        assert export_graph(make(), "graphml") == graphml_et(make())

    @pytest.mark.parametrize("directed", [False, True])
    def test_escapes_and_attribute_types(self, directed):
        g = odd_graph(directed)
        assert export_graph(g, "graphml") == graphml_et(g)
        again = import_graph(export_graph(g, "graphml"), "graphml")
        assert list(again.edges()) == list(g.edges())
        assert again.nodes["a&b"] == {}

    def test_lone_surrogate_becomes_a_character_reference(self):
        # XML 1.0 has no lone surrogates, not even as a character reference
        g = DictVenueGraph()
        g.add_edge("\ud800", "b", 1.0)
        with pytest.raises(ValueError, match="^node '\\\\ud800': '\\\\ud800' cannot be written in XML 1.0$"):
            export_graph(g.venue_graph(), "graphml")

    @pytest.mark.parametrize("char", ["\x00", "\x01", "\x0b", "\x0c", "\x1f", "\ud800", "\udfff", "\ufffe", "\uffff"])
    def test_refuses_what_xml_cannot_carry(self, char):
        g = DictVenueGraph()
        g.add_edge(f"a{char}", "b", 1.0)
        with pytest.raises(ValueError, match="^" + re.escape(f"node {f'a{char}'!r}: ")):
            export_graph(g.venue_graph(), "graphml")
        g = DictVenueGraph()
        g.add_node("a", label=f"x{char}")
        with pytest.raises(ValueError, match="^attribute 'label' of node 'a': "):
            export_graph(g.venue_graph(), "graphml")
        g = graph_with_isolate()
        for attrs in g.nodes.values():
            attrs[f"n{char}"] = 1
        with pytest.raises(ValueError, match="^" + re.escape(f"attribute {f'n{char}'!r}: ")):
            export_graph(g, "graphml")

    def test_carriage_return_in_data_text_reads_back(self):
        g = DictVenueGraph()
        g.add_node("a\rb", label="x\ry\r\nz", note="\t\n")
        g = g.venue_graph()
        data = export_graph(g, "graphml")
        assert b"x&#13;y&#13;\nz" in data
        assert import_graph(data, "graphml") == g

    def test_empty_and_edgeless_graphs(self):
        for directed in (False, True):
            g = VenueGraph(directed=directed)
            assert export_graph(g, "graphml") == graphml_et(g)
            d = DictVenueGraph(directed=directed)
            d.add_node("a")
            d.add_node("b", publication_count=3)
            g = d.venue_graph()
            assert export_graph(g, "graphml") == graphml_et(g)

    def test_seeded_random_graphs(self):
        rng = random.Random(4)
        for _ in range(40):
            g = DictVenueGraph(directed=rng.random() < 0.5)
            names = rng.sample(ODD_NAMES + [f"v{i}" for i in range(20)], rng.randint(0, 25))
            for name in names:
                g.add_node(name, **({"publication_count": rng.randint(0, 9)} if rng.random() < 0.7 else {}))
            for _ in range(rng.randint(0, 40)):
                if len(names) > 1:
                    u, v = rng.sample(names, 2)
                    g.add_edge(u, v, rng.random() + 0.01)
            g = g.venue_graph()
            assert export_graph(g, "graphml") == graphml_et(g)


class TestWriteGraph:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_writes_the_exported_bytes(self, fmt, tmp_path):
        names = TSV_ODD_NAMES if fmt == "edge-tsv" else ODD_NAMES
        for directed in (False, True):
            g = odd_graph(directed, names=names)
            path = tmp_path / f"g.{fmt}"
            write_graph(g, path, fmt)
            assert path.read_bytes() == export_graph(g, fmt)
            for i, attrs in enumerate(g.nodes.values()):
                attrs["cluster"] = f"c{i % 3}"
            write_graph(g, path, fmt)
            assert path.read_bytes() == export_graph(g, fmt)

    def test_a_graph_the_format_cannot_carry_leaves_no_file(self, tmp_path):
        for fmt, node in (("edge-tsv", "#x"), ("graphml", "a\x01")):  # graphml raises after its first lines
            g = DictVenueGraph()
            g.add_edge("b", node, 1.0)
            path = tmp_path / f"g.{fmt}"
            path.write_text("old")
            with pytest.raises(ValueError, match=re.escape(repr(node))):
                write_graph(g.venue_graph(), path, fmt)
            assert not path.exists()

    def test_graphml_streams(self, tmp_path):
        # the whole document is never held: the old writer peaked at four times its size
        g = DictVenueGraph()
        n = 2000
        for i in range(n):
            g.add_node(f"venue{i:05d}", publication_count=i, cluster="c")
            for k in (1, 2, 3, 7):
                g.add_edge(f"venue{i:05d}", f"venue{(i + k) % n:05d}", 1.0 / (k + i))
        g = g.venue_graph()
        path = tmp_path / "g.graphml"
        tracemalloc.start()
        try:
            write_graph(g, path, "graphml")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * path.stat().st_size


class TestTsvDialect:
    def test_header_names_directedness(self):
        data = export_graph(weighted_triangle(), "edge-tsv").decode("utf-8")
        assert data.splitlines()[0] == "# venuenet-graph directed=false"
        data = export_graph(directed_two_cycle(), "edge-tsv").decode("utf-8")
        assert data.splitlines()[0] == "# venuenet-graph directed=true"

    def test_edge_rows_are_plain_tsv(self):
        data = export_graph(weighted_triangle(), "edge-tsv").decode("utf-8")
        rows = [l for l in data.splitlines() if l and not l.startswith("#")]
        assert rows == ["v1\tv2\t0.5", "v1\tv3\t0.125", "v2\tv3\t0.25"]

    def test_missing_header_rejected(self):
        message = "line 1: the header must be '# venuenet-graph directed=false' or '# venuenet-graph directed=true'"
        for first in ("a\tb\t1.0", "# venuenet-graph", "# venuenet-graph directed=true "):
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                import_graph(f"{first}\na\tb\t1.0\n".encode(), "edge-tsv")

    @pytest.mark.parametrize("name", ["#x", "#node", "a\tb", "a\nb", "a\rb", "a\x0bb", "a\x0cb", "a\x1cb", "a\x1eb",
                                      "a\x85b", "a\u2028b", "a\u2029b", "\ud800", "a\udfff"])
    def test_refuses_names_the_reader_would_misread(self, name):
        # A leading '#' reads as a comment, a tab splits the row, a line
        # break ends it, and UTF-8 has no lone surrogates.
        for make in (lambda g: g.add_edge(name, "b", 1.0), lambda g: g.add_node(name)):
            g = DictVenueGraph()
            make(g)
            with pytest.raises(ValueError, match="^" + re.escape(f"node {name!r}: ")):
                export_graph(g.venue_graph(), "edge-tsv")

    def test_odd_names_it_can_carry_round_trip(self):
        for directed in (False, True):
            g = odd_graph(directed, names=TSV_ODD_NAMES + ["x#y", "a b ", ""])
            assert import_graph(export_graph(g, "edge-tsv"), "edge-tsv") == g


class TestErrors:
    def test_unknown_format(self):
        with pytest.raises(ValueError, match="^unknown export format 'dot'$"):
            export_graph(VenueGraph(), "dot")
        with pytest.raises(ValueError, match="^unknown export format 'dot'$"):
            import_graph(b"", "dot")

    @pytest.mark.parametrize("fmt, place", [("edge-tsv", "line 2"), ("json", None), ("graphml", None)])
    @pytest.mark.parametrize("u, v, w, problem", [
        ("a", "a", 1.0, "self-loop on 'a' not allowed"),
        ("a", "b", 0.0, "edge weight must be finite and > 0, got 0.0"),
        ("a", "b", math.nan, "edge weight must be finite and > 0, got nan"),
    ])
    def test_readers_refuse_self_loops_and_weights(self, fmt, place, u, v, w, problem):
        documents = {
            "edge-tsv": f"# venuenet-graph directed=true\n{u}\t{v}\t{w!r}\n",
            "json": json.dumps({"format": "venuenet-graph/1", "directed": True, "nodes": [], "edges": [[u, v, w]]}),
            "graphml": f'<graphml xmlns="{_GRAPHML_NS}"><key id="w" for="edge" attr.name="weight" attr.type="double"/>'
                       f'<graph edgedefault="directed"><edge source="{u}" target="{v}"><data key="w">{w!r}</data></edge>'
                       "</graph></graphml>",
        }
        message = f"{place or f'edge {u!r} -> {v!r}'}: {problem}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            import_graph(documents[fmt].encode(), fmt)

    def test_graphml_key_id_declared_twice(self):
        doc = (f'<graphml xmlns="{_GRAPHML_NS}"><key id="d0" for="node" attr.name="x" attr.type="long"/>'
               '<key id="d0" for="node" attr.name="y" attr.type="string"/><graph edgedefault="undirected">'
               '<node id="a"><data key="d0">1</data></node></graph></graphml>')
        with pytest.raises(ValueError, match="^" + re.escape("<key id='d0'>: the id is declared twice") + "$"):
            import_graph(doc.encode(), "graphml")

    @pytest.mark.parametrize("doc, key", [
        ('{"format": "venuenet-graph/1", "directed": true, "directed": false, "nodes": [], "edges": [["a", "b", 1.0]]}',
         "directed"),
        ('{"format": "venuenet-graph/1", "directed": false, "nodes": [["a", {"x": null, "x": null}]], "edges": []}', "x"),
    ])
    def test_json_key_given_twice(self, doc, key):
        with pytest.raises(ValueError, match="^" + re.escape(f"invalid JSON (key {key!r} is given twice)") + "$"):
            import_graph(doc.encode(), "json")

    def test_json_boolean_weight(self):
        doc = '{"format": "venuenet-graph/1", "directed": false, "nodes": [], "edges": [["a", "b", true]]}'
        with pytest.raises(ValueError, match="^" + re.escape("edge 'a' -> 'b': weight must be a number, got true") + "$"):
            import_graph(doc.encode(), "json")

    def test_json_format_tag_checked(self):
        with pytest.raises(ValueError, match="^not a venuenet-graph/1 JSON object$"):
            import_graph(b'{"format": "other", "directed": false, "nodes": [], "edges": []}', "json")


class TestTables:
    HEADER = "id\tvalue"

    def read(self, path, data: bytes, headerless=False):
        path.write_bytes(data)
        return read_table(path, self.HEADER, "test", key=("id",), parse={"value": finite_float}, headerless=headerless)

    def test_write_formats_cells_and_comment(self, tmp_path):
        path = tmp_path / "t.tsv"
        write_table(path, "a\tb\tc", [("x", 0.1, None), ("y", 3, "z")], comment="q=0.5")
        assert path.read_bytes() == b"# q=0.5\na\tb\tc\nx\t0.1\t\ny\t3\tz\n"

    def test_comments_before_the_header_give_settings(self, tmp_path):
        settings, rows = self.read(tmp_path / "t.tsv", b"# q=1.5 note\n#\nid\tvalue\n#a\t2\n")
        assert settings == {"q": "1.5"} and rows == [["#a", 2.0]]  # a row is never a comment

    @pytest.mark.parametrize("data, message", [
        (b"", "line 1: unexpected test header: ''"),
        (b"id\tvalue\r\na\t1\r\n", "line 1: unexpected test header: 'id\\tvalue\\r'"),
        (b"id\tvalue\na\t1\nb\n", "line 3: expected 2 tab-separated fields, got 1"),
        (b"id\tvalue\na\t1\n\n", "line 3: expected 2 tab-separated fields, got 1"),
        (b"id\tvalue\na\t1\t\n", "line 2: expected 2 tab-separated fields, got 3"),
        (b"id\tvalue\na\tnan\n", "line 2: not a finite number: 'nan'"),
        (b"id\tvalue\n\t1\n", "line 2: empty id"),
        (b"id\tvalue\na\t1\nb\t2\na\t3\n", "line 4: id 'a' repeats line 2"),
        (b"# c\nid\tvalue\na\t\xff\n", "line 3: invalid UTF-8 at byte 15"),
    ])
    def test_faults_name_file_and_line(self, tmp_path, data, message):
        path = tmp_path / "t.tsv"
        with pytest.raises(ValueError) as exc:
            self.read(path, data)
        assert str(exc.value) == f"{path}: {message}"

    def test_headerless_table_starts_with_its_rows(self, tmp_path):
        assert self.read(tmp_path / "t.tsv", b"a\t1\n", headerless=True) == ({}, [["a", 1.0]])
        assert self.read(tmp_path / "t.tsv", b"", headerless=True) == ({}, [])
