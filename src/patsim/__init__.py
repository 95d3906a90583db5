"""Patient similarity from unstructured note embedding matrices.

Pipeline: load or generate a corpus, split notes into titled segments,
filter them per similarity category, stack note embeddings into one
matrix per patient, reduce matrix pairs to similarity scores, and
evaluate the scores against annotator rankings.
"""

from .corpus import (
    Corpus,
    CorpusStats,
    NoteRecord,
    PatientRecord,
    corpus_stats,
    load_corpus,
    write_corpus,
)
from .engine import (
    MMETHODS,
    VMETHODS,
    RunConfig,
    SimilarityMatrix,
    combine_similarities,
    compute_all_pairs,
    load_similarity,
    persist_similarity,
    timing_report,
)
from .evaluation import (
    AnnotationRecord,
    ValidationSet,
    cluster_precision_at_k,
    evaluate_config,
    inter_annotator_agreement,
    kendall_tau_b,
    load_annotations,
    mean_annotation,
)
from .grid import EvalReport, GridOptions, grid_search, write_report
from .matsim import SimScore, combined, cross_sim, eds, eds_alignment, mms, rv2
from .segmenter import (
    CATEGORIES,
    CATEGORY_NAMES,
    FilteredNote,
    RelevancyMap,
    Segment,
    SimilarityCategory,
    build_title_space,
    expand_prototypes,
    filter_patient,
    resolve_category,
    segment_note,
)
from .synth import SynthSpec, generate_synthetic, synthesize_validation
from .vectorizer import (
    LsaModel,
    NoteVectors,
    PatientMatrix,
    build_patient_matrix,
    embed,
    fit_lsa,
    import_embeddings,
    tokenize,
)

__version__ = "0.1.0"
