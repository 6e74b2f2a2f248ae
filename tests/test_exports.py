"""Every advertised public name resolves."""

import importlib
import pkgutil

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
