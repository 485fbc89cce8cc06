import numpy as np
import pytest

from sfattack import autodiff as ad
from sfattack import estimators
from sfattack.autodiff import Tensor, constant


def _recip(t):
    return ad.exp(ad.smul(ad.log(t), -1.0))


def _unrolled_sinkhorn(cost, reg, iters):
    """Sinkhorn built from autodiff primitives, one tape node per operation.

    The same arithmetic as estimators.sinkhorn's forward, minus its argument
    and marginal checks; the reference for the fused node's plan and VJP.
    """
    if not isinstance(cost, Tensor):
        cost = constant(cost)
    n, m = cost.shape
    ones_row = constant(np.ones((1, n)))
    k = ad.exp(ad.smul(estimators.median_scale(cost), -1.0 / reg))
    for _ in range(iters):
        k = ad.smul(ad.mul(k, _recip(ad.row_sum(k))), 1.0 / n)
        k = ad.smul(ad.mul(k, _recip(ad.matmul(ones_row, k))), 1.0 / m)
    return ad.mul(k, _recip(ad.row_sum(k)))


@pytest.fixture
def unrolled_sinkhorn():
    return _unrolled_sinkhorn
