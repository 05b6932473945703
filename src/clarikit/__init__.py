"""clarikit: evidence pools and evaluation for search-clarification facets.

Build, diversify and audit evidence pools for clarifying-question
generation, and score generated facet sets against ground truth with a
deterministic, set-based metric suite.
"""

from .corpus import (
    ClarificationInstance,
    Corpus,
    Document,
    EmbeddingTable,
    load_corpus,
    load_embeddings,
    load_instances,
    normalize,
    stopwords,
)
from .errors import ClarikitError, DataError, GeneratorError, RetriableGeneratorError
from .generator import (
    Clarification,
    GeneratorRequest,
    extractive_generate,
    fuse_round_robin,
    remote_generate,
)
from .harness import (
    AlignmentReport,
    BootstrapResult,
    ExperimentReport,
    LooReport,
    SweepReport,
    TaxonomyReport,
    alignment_stats,
    evidence_size_sweep,
    loo_faithfulness,
    paired_bootstrap,
    run_experiment,
    taxonomy_analysis,
)
from .metrics import (
    METRIC_COLUMNS,
    FacetAssignment,
    MetricReport,
    PRF,
    bleu_n,
    evaluate_instance,
    exact_match,
    indicator_embedder,
    match_facet_pairs,
    mean_report,
    set_bleu,
    set_sim,
    table_embedder,
    term_overlap,
)
from .retrieval import (
    EvidencePool,
    InvertedIndex,
    PoolEntry,
    RetrievalConfig,
    ScoredDoc,
    bm25_retrieve,
    build_inverted_index,
    build_pool,
    dense_retrieve,
    interleave_round_robin,
    mmr_rerank,
    resolve_texts,
)

__version__ = "0.1.0"
