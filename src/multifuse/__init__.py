"""multifuse: build, fuse and analyse multiplex similarity networks.

The package turns per-layer measurement tables into similarity matrices,
integrates them into a single network either by cross-diffusion (SNF) or by
matrix barycenters under the Frobenius, affine-invariant Riemannian or
Bures-Wasserstein metric, and analyses the results with generalized distance
correlation and Louvain modularity clustering.
"""

from .errors import (
    DegenerateSpectrum,
    DimensionError,
    EmptyAfterFilter,
    EmptyTable,
    InvalidInput,
    InvalidParameter,
    MultifuseError,
    ParseError,
    SingularMatrix,
)
from .matcore import (
    EigenPair,
    eig_floor,
    fro_norm,
    frobenius_inner,
    sym_eigen,
    sym_matrix,
)
from .simbuild import (
    FeatureTable,
    Multiplex,
    SimilarityLayer,
    auto_sigma,
    rbf_similarity,
)
from .snf import (
    FusionResult,
    SnfConfig,
    cdp_step,
    default_k,
    global_normalize,
    local_normalize,
    snf_fuse,
)
from .sma import (
    BarycenterConfig,
    barycenter_frobenius,
    barycenter_riemannian,
    barycenter_wasserstein,
    check_weights,
    rv_matrix,
    solve_barycenter,
    uniform_weights,
    weights_frobenius,
    weights_rowsum,
)
from .netanalysis import (
    CorrelationTable,
    Partition,
    correlation_table,
    distance_correlation,
    louvain_communities,
    modularity,
)
from .pipeline import (
    FilterLog,
    PipelineConfig,
    RunReport,
    export_graph,
    filter_entities,
    load_abundance_tables,
    load_similarity_csv,
    run_pipeline,
    write_similarity_csv,
)

__version__ = "0.1.0"
