"""Each submodule's ``__all__`` is the one list of public names."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import ebitcalc


def _public_definitions(tree: ast.Module) -> list[str]:
    """Top-level defs, classes and assigned names without a leading underscore.

    ``TYPE_CHECKING = False`` and its ``if TYPE_CHECKING:`` block are
    typing plumbing, not definitions.
    """
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names += [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]
    return [n for n in names if not n.startswith("_") and n != "TYPE_CHECKING"]


def test_submodule_exports_resolve():
    for info in pkgutil.iter_modules(ebitcalc.__path__):
        if info.name == "__main__":  # importing it would run the CLI
            continue
        module = importlib.import_module(f"ebitcalc.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"ebitcalc.{info.name}.{name}"


def test_submodule_all_lists_exactly_its_public_definitions():
    for info in pkgutil.iter_modules(ebitcalc.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"ebitcalc.{info.name}")
        declared = getattr(module, "__all__", ())
        assert len(declared) == len(set(declared)), f"ebitcalc.{info.name}.__all__"
        defined = _public_definitions(ast.parse(Path(module.__file__).read_text()))
        assert set(declared) == set(defined), f"ebitcalc.{info.name}"


def test_package_root_reexports_nothing():
    # -S keeps an installed copy off the path; the child imports this tree.
    script = (
        "import sys, ebitcalc\n"
        "print(sorted(m for m in sys.modules if m.startswith('ebitcalc.')))\n"
        "print(sorted(n for n in vars(ebitcalc) if not n.startswith('_')))\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
    )
    assert result.stdout.splitlines() == ["[]", "[]"]


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


def test_readme_library_example_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(code, namespace)
    h, p, result = namespace["h"], namespace["p"], namespace["result"]
    assert namespace["ebit_count"](h) == 0
    assert (p.logical, p.ancillas) == (1, 4)
    assert p.bracket() == "[[5, 1; 0]]"
    assert (result.pairs, result.isotropic) == ((), (0, 1, 2, 3))
