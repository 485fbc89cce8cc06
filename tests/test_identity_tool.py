"""scripts/identity.py sorts differing output files into the three classes
its `--compare` prints: identical, equal at 6 significant digits, or
different in printed digits.  The script is imported read-only, without
writing bytecode next to it.
"""

import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "identity.py"


@pytest.fixture(scope="module")
def identity():
    saved_env = {k: os.environ.get(k) for k in
                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("identity", SCRIPT)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.dont_write_bytecode = saved
        for k, v in saved_env.items():  # the script pins BLAS threads at import
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def test_text_classes(identity):
    report = b'{"id": "pair_0001", "seed": 17, "epe_after": 0.123456, "rel": %s}'
    same = report % b"0.41512345678901234"
    assert identity.classify(Path("reports/a.json"), same, same) == ("identical", "")
    last_bits = report % b"0.41512345678901237"
    assert identity.classify(Path("reports/a.json"), same, last_bits)[0] == "sig6"
    printed = report % b"0.4151244"
    assert identity.classify(Path("reports/a.json"), same, printed)[0] == "digits"
    # integers and hex digests are compared as written
    a, b = b"ot:1ee4a7dc357a,17", b"ot:1ee4a7dc357b,17"
    assert identity.classify(Path("reports/a.csv"), a, b)[0] == "digits"
    assert identity.classify(Path("stdout/a.txt"), b"seed 17", b"seed 18")[0] == "digits"
    assert identity.classify(Path("stdout/a.txt"), b"x 1e-05.", b"x 1.0000000001e-05.")[0] \
        == "sig6"


def test_binary_files_differ_in_digits(identity):
    assert identity.classify(Path("models/tiny.sftn"), b"\x00\x01", b"\x00\x02") \
        == ("digits", "")


def test_gradient_files(identity):
    va = np.array([1.0, -2.0, 0.5, 0.0])
    near = va.copy()
    near[1] = np.nextafter(-2.0, 0.0)
    kind, note = identity.classify(Path("grads/ot_plain.bin"), va.tobytes(), near.tobytes())
    assert kind == "sig6"
    assert note == f"max rel diff {(2.0 + near[1]) / 2.0:.3g}, all signs agree"
    flipped = va.copy()
    flipped[2] = -0.5
    kind, note = identity.classify(Path("grads/ot_plain.bin"), va.tobytes(), flipped.tobytes())
    assert kind == "digits"
    assert note == "max rel diff 0.5, 1 signs differ"
