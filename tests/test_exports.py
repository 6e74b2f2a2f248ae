"""Every advertised public name resolves."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import ebitcalc


def test_package_exports_resolve():
    # ebitcalc resolves names lazily from a table, so a name deleted from
    # its submodule but left in the table fails only on first access.
    for name in ebitcalc.__all__:
        assert hasattr(ebitcalc, name), name


def test_submodule_exports_resolve():
    for info in pkgutil.iter_modules(ebitcalc.__path__):
        if info.name == "__main__":  # importing it would run the CLI
            continue
        module = importlib.import_module(f"ebitcalc.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"ebitcalc.{info.name}.{name}"


def test_package_exports_are_in_submodule_all():
    # The package table and each submodule's __all__ list the same public
    # names twice; a name added to one must be added to the other.
    for module, names in ebitcalc._EXPORTS.items():
        declared = importlib.import_module(f"ebitcalc.{module}").__all__
        for name in names:
            assert name in declared, f"ebitcalc.{module}.{name}"


def test_benchmark_tracer_names_resolve():
    # bench/tracing.py wraps package functions and methods by name, so a
    # rename here would break the benchmark's per-layer run.
    path = Path(__file__).parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, module, attr, _ in tracing.LAYERS:
        owner = importlib.import_module(f"ebitcalc.{module}")
        if "." in attr:  # a method, looked up on its own class as the tracer does
            cls_name, method = attr.split(".")
            assert method in vars(getattr(owner, cls_name)), (layer, attr)
        else:
            assert callable(getattr(owner, attr, None)), (layer, attr)
