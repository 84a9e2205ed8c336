"""The benchmark's tracer must install on the current package.

``perfbench/tracing.py`` patches functions by name; renaming or deleting one
makes ``Tracer.install`` raise ``LookupError``.  This loads the tracer by
path (it is not part of the package) and runs it around one decomposition
and one certificate.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import scipy.sparse.linalg

import cpdhnf

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every attribute the tracer may patch, by (owner, name)."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "cpdhnf" or name.startswith("cpdhnf."):
            out.update({(name, attr): value for attr, value in vars(mod).items()})
    out["index_of"] = cpdhnf.MonomialBasis.index_of
    out["eigsh"] = scipy.sparse.linalg.eigsh
    out["eig"] = np.linalg.eig
    return out


def test_tracer_installs_records_and_restores(golden_tensor):
    tracing = _load_tracing()
    before = _bindings()
    tracer = tracing.Tracer(cpdhnf)
    with tracer.installed():
        assert cpdhnf.recovery.left_nullspace is not before[("cpdhnf.recovery", "left_nullspace")]
        cpdhnf.decompose_with_info(golden_tensor, 4)
        cert = cpdhnf.certify_regularity(2, 2, 2, 4)
    assert cert["success"]
    names = {span[0] for span in tracer.spans}
    assert {"polysys.left_nullspace", "regcert.certify_regularity"} <= names
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
