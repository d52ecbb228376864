"""Masked-kernel attention operators with verified gauge and closure laws.

The pipeline: build an evidence kernel from masked scores, a positive
prior, and a link; anchor it into a conditional family (row softmax) or
a transport plan (Sinkhorn); update value fields with it. Around that
core sit the quotients that make scores identifiable (centering, low
rank charts), the closure constructions (multi-head, feedforward as a
kernel update, gated mixtures), staged composition with influence
tracking, and a seeded property-check harness exposed both to pytest
and the `ga` command line tool.
"""

from .anchor import (
    ConditionalFamily,
    Marginals,
    TransportPlan,
    generalized_kl,
    plan_to_conditional,
    row_anchor,
    sinkhorn_balanced,
    sinkhorn_unbalanced,
)
from .carrier import (
    BranchCarrier,
    Carrier,
    RefinementMap,
    branch_union,
    compose_refinement,
    identity_refinement,
    pushforward_kernel,
)
from .gauge import (
    CenteredDecomposition,
    GaugeGraph,
    center_scores,
    coboundary,
    cycle_sum,
    row_equivalent,
    scale_kernel,
    weighted_row_center,
)
from .lowrank import (
    LowRankChart,
    SvdResult,
    extract_qk,
    reparameterize_chart,
    score_normal_form,
    svd,
    truncate,
)
from .operator import (
    AlignmentMaps,
    AttentionParams,
    FfnParams,
    ValueField,
    attention,
    conditional_update,
    ffn_as_ga,
    gated_mixture_conditional,
    gated_mixture_plan,
    integral_view,
    multi_head,
    plan_update,
)
from .score import (
    BaselinePrior,
    EvidenceKernel,
    Link,
    MaskedScore,
    assemble_kernel,
    check_link_compositionality,
    row_mass,
    score_from_work,
)
from .staged import (
    ChartSpec,
    CompSpec,
    InfluenceData,
    ReadoutSpec,
    ScheduleStep,
    StagePlan,
    StagedConfig,
    StagedPipeline,
    StageTrace,
    barrier_check,
    full_history_readout,
    influence_relation,
    predecessor_set,
    predecessor_sets,
    run_block,
    run_schedule,
)

__version__ = "0.1.0"
