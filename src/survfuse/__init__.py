"""Multi-modal multi-task survival and grade prediction.

The package couples a graph-masked gene-expression branch with precomputed
image embeddings in a shared fusion trunk, trains survival and grade heads
by alternating task optimization, and ships the full evaluation stack
(concordance, Kaplan-Meier, risk tertiles, micro-averaged classification
metrics) plus a deterministic synthetic-cohort generator and CLI.
"""

from .datakit import (
    Cohort,
    Sample,
    SplitSet,
    gen_splits,
    load_cohort,
    save_cohort,
    standardize_expression,
    synth_gen,
)
from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    NumericError,
    ParseError,
    SurvfuseError,
    UndefinedResultError,
    UsageError,
)
from .genegraph import (
    AdjacencyMask,
    GeneGraph,
    build_adjacency,
    intersect_features,
    parse_edge_list,
)
from .netmodel import (
    DenseLayer,
    ForwardTrace,
    MaskedSparseLayer,
    Network,
    NetworkConfig,
    assemble,
    load_checkpoint,
    save_checkpoint,
)
from .numcore import AdamState, RngStream, adam_step
from .surveval import (
    ConfusionMatrix,
    KMCurve,
    accuracy_and_micro_f1,
    build_metrics,
    c_index,
    confusion,
    km_curve,
    micro_auc_ap,
    per_class_f1,
    risk_tertiles,
)
from .training import (
    SurvivalBatchLabels,
    TrainingHistory,
    TrainingProfile,
    cox_loss,
    nll_loss,
    profile_preset,
    select_task,
    train,
)

__version__ = "0.1.0"
