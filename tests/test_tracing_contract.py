"""The benchmark's tracer times calls by rebinding names inside lehmer_psi
modules (bench/tracing.py, PATCHES). A renamed or moved function would only
show up when a traced benchmark run fails, so the bindings are checked here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import lehmer_psi

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _patches() -> dict:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


@pytest.mark.parametrize("span", sorted(_patches()))
def test_every_traced_name_is_bound(span):
    attr, modules = _patches()[span]
    for module_name in modules:
        importlib.import_module(f"lehmer_psi.{module_name}")
        module = getattr(lehmer_psi, module_name)
        assert callable(getattr(module, attr, None)), f"lehmer_psi.{module_name}.{attr} ({span})"
