"""The names the benchmark's trace mode wraps still exist in tsedarts.

`perfbench/tracer.py` lists the functions it wraps in `TRACED`, and
`perfbench/worker.py` passes `eigen_opts` to `record_epoch`.  Deleting or
renaming any of them breaks the benchmark, not the test suite, so this
checks them here, without installing a single span.
"""

import importlib
import importlib.util
import inspect
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracer():
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = _load_tracer().TRACED


@pytest.mark.parametrize("module, owner, attr, name", TRACED,
                         ids=[entry[3] for entry in TRACED])
def test_traced_entry_resolves(module, owner, attr, name):
    mod = importlib.import_module(f"tsedarts.{module}")
    if owner is None:
        assert callable(getattr(mod, attr, None)), f"tsedarts.{module}.{attr}"
    else:
        # Tracer.install wraps the method found in the class's own __dict__
        assert callable(vars(getattr(mod, owner)).get(attr)), \
            f"tsedarts.{module}.{owner}.{attr}"


def test_record_epoch_accepts_eigen_opts():
    from tsedarts import diagnostics
    assert "eigen_opts" in inspect.signature(diagnostics.record_epoch).parameters
