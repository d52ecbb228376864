"""Every class the package exports keeps its constructor signature and
builds immutable instances: setting or deleting an attribute of a valid
instance raises AttributeError and changes nothing."""

import inspect

import numpy as np
import pytest

import attnkit

EYE = np.eye(2)
FULL = np.ones((2, 2), dtype=bool)

# Parameter names, order and defaults of each constructor, recorded from
# the frozen dataclasses these classes replaced; Name() is an instance
# built with no arguments.
SIGNATURES = {
    "AttentionParams": "(w_q, w_k, w_v, tau=1.0, key_bias=None, prior=None)",
    "BaselinePrior": "(values)",
    "CenteredDecomposition": "(grand_mean, row_means, col_means, interaction, key_bias)",
    "ChartSpec": "(kind='rms_norm', eps=1e-06)",
    "ConditionalFamily": "(values, mask)",
    "EvidenceKernel": "(values, mask)",
    "FfnParams": "(w1, b1, w2, b2, activation='gelu')",
    "LowRankChart": "(Q, L, rank, frobenius_residual, key_bias=None, degenerate=False)",
    "Marginals": "(mu_out, mu_in)",
    "MaskedMatrix": "(values, mask)",
    "MaskedScore": "(values, mask)",
    "RefinementMap": "(map, n_coarse, coarse='coarse')",
    "ScheduleStep": "(attn, ffn, mask=None, refine=None)",
    "StageTrace": "(records, updates, masks, carrier_ids)",
    "SvdResult": "(U, sigma, V)",
    "TransportPlan": "(values, mask, converged, iterations, marginal_error=0.0)",
}


def exported_classes():
    return sorted(name for name in dir(attnkit) if isinstance(getattr(attnkit, name), type))


def instances() -> dict:
    """One valid instance of each exported class, by class name."""
    kernel = attnkit.EvidenceKernel([[1.0, 2.0], [3.0, 4.0]], FULL)
    attn = attnkit.AttentionParams(EYE, EYE, EYE)
    ffn = attnkit.FfnParams(EYE, np.zeros(2), EYE, np.zeros(2))
    step = attnkit.ScheduleStep(attn, ffn, mask=FULL)
    marginals = attnkit.Marginals([1.0, 1.0], [1.0, 1.0])
    return {
        "AttentionParams": attn,
        "BaselinePrior": attnkit.BaselinePrior(FULL),
        "CenteredDecomposition": attnkit.center_scores(EYE),
        "ChartSpec": attnkit.ChartSpec(),
        "ConditionalFamily": attnkit.row_anchor(kernel),
        "EvidenceKernel": kernel,
        "FfnParams": ffn,
        "LowRankChart": attnkit.score_normal_form(EYE, 1),
        "Marginals": marginals,
        "MaskedMatrix": attnkit.MaskedMatrix(EYE, EYE),
        "MaskedScore": attnkit.MaskedScore(EYE, [[1, 0], [1, 1]]),
        "RefinementMap": attnkit.RefinementMap([0, 1, 1], 2),
        "ScheduleStep": step,
        "StageTrace": attnkit.run_schedule(EYE, [step]),
        "SvdResult": attnkit.svd(EYE),
        "TransportPlan": attnkit.sinkhorn_balanced(kernel, marginals),
    }


def plain_signature(cls) -> str:
    """The constructor's signature without annotations."""
    params = []
    for p in inspect.signature(cls).parameters.values():
        assert p.kind is p.POSITIONAL_OR_KEYWORD
        if p.default is p.empty:
            params.append(p.name)
        elif isinstance(p.default, (type(None), bool, int, float, str)):
            params.append(f"{p.name}={p.default!r}")
        else:
            assert vars(p.default) == vars(type(p.default)())
            params.append(f"{p.name}={type(p.default).__name__}()")
    return f"({', '.join(params)})"


def test_every_exported_class_is_covered():
    assert exported_classes() == sorted(SIGNATURES) == sorted(instances())


@pytest.mark.parametrize("name", exported_classes())
def test_constructor_signature_is_kept(name):
    assert plain_signature(getattr(attnkit, name)) == SIGNATURES[name]


@pytest.mark.parametrize("name", exported_classes())
def test_instances_are_immutable(name):
    obj = instances()[name]
    assert type(obj) is getattr(attnkit, name)
    fields = dict(vars(obj))
    assert fields
    for attr in [*fields, "unlisted"]:
        with pytest.raises(AttributeError):
            setattr(obj, attr, 0)
        with pytest.raises(AttributeError):
            delattr(obj, attr)
    assert vars(obj).keys() == fields.keys()
    assert all(vars(obj)[attr] is value for attr, value in fields.items())
