"""Masked-kernel attention operators with verified gauge and closure laws.

The pipeline: build an evidence kernel from masked scores, a positive
prior, and a temperature; anchor it into a conditional family (row
softmax) or a transport plan (Sinkhorn); update value fields with it.
Around that core sit the quotients that make scores identifiable
(centering, low rank charts), the closure constructions (feedforward as
a kernel update, a gated mixture flattened to one weight matrix), staged
composition with influence tracking, and a seeded property-check harness
exposed both to pytest and the `ga` command line tool.
"""

from .anchor import (
    ConditionalFamily,
    Marginals,
    TransportPlan,
    row_anchor,
    sinkhorn_balanced,
    sinkhorn_unbalanced,
)
from .carrier import (
    RefinementMap,
    pushforward_kernel,
)
from .gauge import (
    CenteredDecomposition,
    center_scores,
    scale_kernel,
)
from .lowrank import (
    LowRankChart,
    SvdResult,
    score_normal_form,
    svd,
)
from .operator import (
    AttentionParams,
    FfnParams,
    attention,
    ffn_as_ga,
    flatten_mixture,
    update,
)
from .score import (
    BaselinePrior,
    EvidenceKernel,
    MaskedMatrix,
    MaskedScore,
    assemble_kernel,
)
from .staged import (
    ChartSpec,
    ScheduleStep,
    StageTrace,
    predecessor_sets,
    run_schedule,
)

__version__ = "0.1.0"
