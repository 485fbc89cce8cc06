"""The names perfbench wraps and the Graph internals it reads still exist.

perfbench/spans.py replaces functions at the place their callers look them
up, and reads the tape's length and node values; a renamed name would make
perfbench/run.py fail with a KeyError.  The module is imported read-only,
without writing bytecode next to it.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from sfattack import autodiff as ad

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def spans():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("spans")
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = saved


def test_every_site_resolves(spans):
    for owner, attr, name, _ in spans.ALL_SITES:
        assert attr in owner.__dict__, f"{name}: {owner.__name__}.{attr} is gone"
        assert callable(owner.__dict__[attr]), f"{name}: {attr} is not callable"


def test_tape_attrs_read_the_graph(spans):
    g = ad.Graph()
    x = g.leaf(np.ones((4, 3)))
    root = ad.tmean(ad.rownorm(x))
    attrs = spans._tape_attrs((root,))
    assert attrs == {"nodes": 3, "bytes": 4 * 3 * 8 + 4 * 8 + 8}
    assert len(g) == 3 and g._nodes[0].value is x.data
