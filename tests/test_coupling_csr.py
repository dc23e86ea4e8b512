"""The coupling path on sorted CSR arrays against the dictionary oracles, bit
for bit: the cosine kernel and K (`knowledge_network_loop`), `coupling.json`
(`coupling_json_dumps`) and the cluster projection (`adopt_by_cosine_loop`,
`cluster_network_loop`). Matrices are seeded and drawn by hypothesis, with
empty rows first, in the middle and last, count ties, disjoint keys and
counts at 2^17, 2^33 and 2^70 (Python integers), a single venue and venues
that share no key with any other. Each check runs with the
product's block bounds as shipped and shrunk, so that every block boundary
is crossed."""

import random

import pytest

from conftest import saved_matrix_bytes
from oracles import adopt_by_cosine_loop, cluster_network_loop, coupling_json_dumps, knowledge_network_loop, neighbors
from venuenet import networks
from venuenet.community import ClusterPartition, project_to_cluster_network
from venuenet.exports import export_graph
from venuenet.networks import CouplingMatrix, build_coupling_matrix, build_knowledge_network
from venuenet.synth import scale_corpus

# (PRODUCT_BLOCK_CELLS, PRODUCT_BLOCK_TERMS): as shipped; a few cells and
# products, so blocks end on either bound; one row per block
BLOCK_BOUNDS = [None, (5, 3), (1, 1)]
SCALES = (1, 2**17, 2**33, 2**70)


def assert_csr_equals_dicts(m: CouplingMatrix, assignment: dict[str, str]) -> None:
    for bounds in BLOCK_BOUNDS:
        with pytest.MonkeyPatch.context() as patch:
            if bounds:
                patch.setattr(networks, "PRODUCT_BLOCK_CELLS", bounds[0])
                patch.setattr(networks, "PRODUCT_BLOCK_TERMS", bounds[1])
            want, got = knowledge_network_loop(m), build_knowledge_network(m)
            assert list(got.nodes.items()) == list(want.nodes.items())
            for node in want.nodes:
                assert list(neighbors(got, node).items()) == list(neighbors(want, node).items()), (bounds, node)
            assert got.edge_count() == want.edge_count()

            p = ClusterPartition(assignment=assignment, q=0.0)
            projection = project_to_cluster_network(m, p)
            new_assignments, unassigned = adopt_by_cosine_loop(m, p)
            assert list(projection.new_assignments.items()) == list(new_assignments.items())
            assert projection.unassigned == unassigned
            members = {**assignment, **new_assignments}
            venue_counts = {c: list(members.values()).count(c) for c in set(members.values())}
            expected = cluster_network_loop(projection.cluster_matrix, venue_counts)
            assert export_graph(projection.graph, "edge-tsv") == export_graph(expected, "edge-tsv")
            sums: dict[str, dict[str, int]] = {c: {} for c in sorted(set(assignment.values()))}
            for venue, cluster in members.items():
                for key, count in m.vectors.get(venue, {}).items():
                    sums[cluster][key] = sums[cluster].get(key, 0) + count
            assert projection.cluster_matrix.vectors == sums

    data = saved_matrix_bytes(m)
    assert data == coupling_json_dumps(m)
    assert CouplingMatrix.from_json(data.decode("utf-8")) == m


def seeded_matrix(rng: random.Random, scale: int) -> tuple[CouplingMatrix, dict[str, str]]:
    pool = [f"k{i}" for i in range(rng.randint(1, 25))]
    venues = [f"v{i:02d}" for i in range(rng.randint(0, 25))]
    vectors = {}
    for venue in venues:
        keys = rng.sample(pool, rng.choice([0, 1, rng.randint(1, len(pool))]))
        if rng.random() < 0.15:
            keys = [f"only-{venue}"]  # disjoint from every other venue
        vectors[venue] = {key: rng.choice([1, 1, 2, 3]) * scale for key in keys}  # ties
    publications = {venue: rng.randint(0, 9) * scale for venue in venues}
    clusters = [f"c{i}" for i in range(rng.randint(1, 5))] + venues[:2]  # ids of their own, or venue keys
    assignment = {venue: rng.choice(clusters) for venue in venues if rng.random() < 0.6}
    return CouplingMatrix.from_vectors(venues, vectors, publications), assignment


@pytest.mark.parametrize("scale", SCALES)
def test_seeded_matrices(scale):
    rng = random.Random(scale % 997)
    for _ in range(25):
        assert_csr_equals_dicts(*seeded_matrix(rng, scale))


@pytest.mark.parametrize("empty_at", [(0,), (-1,), (0, 3, -1), (0, 0, -1, -1)])
def test_empty_rows_first_middle_and_last(empty_at):
    vectors = {f"v{i}": {"x": i + 1, "y": 2} for i in range(1, 7)}
    vectors["v3"] = {"z": 5}
    names = sorted(vectors)
    for at in empty_at:  # an empty row takes the name that sorts there
        names.insert(at if at >= 0 else len(names), f"e{len(names)}")
    venues = [f"{i:02d}-{name}" for i, name in enumerate(names)]
    m = CouplingMatrix.from_vectors(venues, {v: vectors.get(name, {}) for v, name in zip(venues, names)})
    assert [len(row) for row in m.vectors.values()].count(0) == len(empty_at)
    assert_csr_equals_dicts(m, {venues[i]: "c" for i in range(0, len(venues), 2)})


@pytest.mark.parametrize("vectors", [
    {"v": {"x": 3, "y": 1}},  # a single venue
    {"v": {}},  # a single venue citing nothing
    {"a": {"x": 1, "y": 2}, "b": {"y": 1}, "c": {"z": 4, "w": 1}},  # c shares no key with any other
    {"a": {"p": 2}, "b": {"q": 1}, "c": {"r": 5}},  # no venue shares a key
])
def test_single_venues_and_venues_sharing_no_key(vectors):
    m = CouplingMatrix.from_vectors(list(vectors), vectors, {venue: 2 for venue in vectors})
    for assignment in ({}, {venue: "c0" for venue in list(vectors)[:1]}, {venue: venue for venue in vectors}):
        assert_csr_equals_dicts(m, assignment)


def test_scale_corpus_matrix():
    m = build_coupling_matrix(scale_corpus(60, 6, groups=6, seed=4))
    assert_csr_equals_dicts(m, {venue: f"c{i % 5}" for i, venue in enumerate(m.venues) if i % 4})


try:
    from hypothesis import HealthCheck, given, settings, strategies as st
except ImportError:  # hypothesis is optional; the seeded tests above still run
    st = None

if st is not None:

    @st.composite
    def matrices(draw):
        scale = draw(st.sampled_from(SCALES))
        keys = [f"k{i}" for i in range(draw(st.integers(1, 10)))]
        counts = st.integers(1, 3).map(lambda c: c * scale)
        rows = draw(st.lists(st.dictionaries(st.sampled_from(keys), counts, max_size=len(keys)), max_size=10))
        venues = [f"v{i:02d}" for i in range(len(rows))]
        for i, row in enumerate(rows):
            if draw(st.booleans()):
                row[f"only-{i}"] = scale  # a key no other venue cites
        publications = dict(zip(venues, draw(st.lists(st.integers(0, 3 * scale), min_size=len(venues), max_size=len(venues)))))
        clusters = st.sampled_from(["c0", "c1", "c2", *venues[:1]])
        picks = draw(st.lists(st.none() | clusters, min_size=len(venues), max_size=len(venues)))
        assignment = {venue: cluster for venue, cluster in zip(venues, picks) if cluster is not None}
        return CouplingMatrix.from_vectors(venues, dict(zip(venues, rows)), publications), assignment

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(matrices())
    def test_hypothesis_matrices(drawn):
        assert_csr_equals_dicts(*drawn)
