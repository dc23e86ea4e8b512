"""venuenet: venue-level knowledge and citation networks from publication corpora."""

from .corpus import (
    AuthorName,
    Corpus,
    PublicationRecord,
    ValidationReport,
    VenueInfo,
    last_name_key,
    parse_corpus,
    serialize_corpus,
    slice_by_year,
    validate_corpus,
)
from .community import ClusterPartition, greedy_modularity_partition, modularity, project_to_cluster_network
from .exports import export_graph, import_graph
from .graph import VenueGraph
from .linkage import (
    MatchPair,
    jaccard_title_similarity,
    link_corpora,
    smith_waterman_similarity,
    tokenize_title,
)
from .metrics import (
    MetricVector,
    average_clustering_coefficient,
    betweenness_centrality,
    density,
    largest_component_fraction,
    pagerank,
)
from .networks import (
    CouplingMatrix,
    NetworkSummary,
    ThresholdRule,
    apply_threshold,
    build_citation_network,
    build_coupling_matrix,
    build_knowledge_network,
    summarize,
)
from .pipeline import PipelineConfig, RunManifest, run_pipeline
from .subgraphs import (
    ClassificationCuts,
    SubgraphProfile,
    classify_network_type,
    profile_statistics,
)

__version__ = "0.1.0"

__all__ = [
    "AuthorName",
    "ClassificationCuts",
    "ClusterPartition",
    "Corpus",
    "CouplingMatrix",
    "MatchPair",
    "MetricVector",
    "NetworkSummary",
    "PipelineConfig",
    "PublicationRecord",
    "RunManifest",
    "SubgraphProfile",
    "ThresholdRule",
    "ValidationReport",
    "VenueGraph",
    "VenueInfo",
    "apply_threshold",
    "average_clustering_coefficient",
    "betweenness_centrality",
    "build_citation_network",
    "build_coupling_matrix",
    "build_knowledge_network",
    "classify_network_type",
    "density",
    "export_graph",
    "greedy_modularity_partition",
    "import_graph",
    "jaccard_title_similarity",
    "largest_component_fraction",
    "last_name_key",
    "link_corpora",
    "modularity",
    "pagerank",
    "parse_corpus",
    "profile_statistics",
    "project_to_cluster_network",
    "run_pipeline",
    "serialize_corpus",
    "slice_by_year",
    "smith_waterman_similarity",
    "summarize",
    "tokenize_title",
    "validate_corpus",
]
