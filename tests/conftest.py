import numpy as np
import pytest

from sfattack import autodiff as ad
from sfattack.autodiff import Tensor, constant

from oracle_ops import exp, gather_rows, mul, recip, row_sum, unrolled_median_scale


def _unrolled_sinkhorn(cost, reg, iters):
    """Sinkhorn built from autodiff primitives, one tape node per operation.

    The same arithmetic as estimators.sinkhorn's forward, minus its argument
    and marginal checks, with the median scaling unrolled too; the reference
    for the fused node's plan and VJP.
    """
    if not isinstance(cost, Tensor):
        cost = constant(cost)
    n, m = cost.shape
    ones_row = constant(np.ones((1, n)))
    k = exp(ad.smul(unrolled_median_scale(cost), -1.0 / reg))
    for _ in range(iters):
        k = ad.smul(mul(k, recip(row_sum(k))), 1.0 / n)
        k = ad.smul(mul(k, recip(ad.matmul(ones_row, k))), 1.0 / m)
    return mul(k, recip(row_sum(k)))


@pytest.fixture
def unrolled_sinkhorn():
    return _unrolled_sinkhorn


def _looped_attention(e1, e2, idx, bounds=None):
    """kNN attention built from autodiff primitives, a few nodes per neighbour.

    The per-neighbour loop estimators.knn_attention fuses; the reference for
    its output and VJP.  `bounds`, which only splits the fused node's work
    into row segments, changes nothing here.
    """
    neigh_feats = []
    logits = []
    for j in range(idx.shape[1]):
        f2j = gather_rows(e2, idx[:, j])                  # (N, H)
        d = ad.sub(e1, f2j)
        logits.append(ad.smul(row_sum(mul(d, d)), -1.0))  # (N, 1)
        neigh_feats.append(f2j)
    shift = constant(np.maximum.reduce([l.data for l in logits]))
    exps = [exp(ad.sub(l, shift)) for l in logits]
    total = exps[0]
    for e in exps[1:]:
        total = ad.add(total, e)
    inv_total = recip(total)                              # (N, 1)
    attended = None
    for e, f2j in zip(exps, neigh_feats):
        term = mul(mul(e, inv_total), f2j)
        attended = term if attended is None else ad.add(attended, term)
    return attended


@pytest.fixture
def looped_attention():
    return _looped_attention
