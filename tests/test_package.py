"""Package surface: exported names and import cost."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys

import pytest

import persuade

from conftest import CANON_RAW

MODULES = ("persuade", "persuade.errors", "persuade.model", "persuade.dynamics",
           "persuade.solver", "persuade.oracle", "persuade.sim", "persuade.cli")


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{mod.__name__}.__all__ lists undefined names {missing}"


def test_package_root_holds_only_the_version():
    # Each public name has one home, its submodule; the root re-exports none.
    assert persuade.__all__ == ["__version__"]
    exported = set().union(*(importlib.import_module(m).__all__ for m in MODULES[1:]))
    rebound = sorted(exported & set(vars(persuade)))
    assert not rebound, f"the package root binds submodule names {rebound}"


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _program_texts():
    """(path from the repo root, text) of each source module, demo, benchmark script and pyproject.toml."""
    paths = [os.path.join(ROOT, "pyproject.toml")]
    for folder in ("src/persuade", "demos", "perfbench"):
        directory = os.path.join(ROOT, folder)
        paths += [os.path.join(directory, name) for name in sorted(os.listdir(directory))
                  if name.endswith(".py")]
    for path in paths:
        with open(path) as handle:
            yield os.path.relpath(path, ROOT), handle.read()


def test_public_functions_have_a_program_caller():
    # A function or constant that only the tests call belongs in the tests.
    # Classes are exempt: they name what the public functions return.
    texts = list(_program_texts())
    uncalled = []
    for module in MODULES[1:]:
        mod = importlib.import_module(module)
        own = os.path.join("src", *module.split(".")) + ".py"
        for name in mod.__all__:
            qualname = f"{module}.{name}"
            if inspect.isclass(getattr(mod, name)):
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(text) for path, text in texts if path != own):
                uncalled.append(qualname)
    assert not uncalled, f"public names no program calls: {uncalled}"


# Every parameter with a default, over the functions and the public methods of
# the classes in each submodule's __all__.  A new knob has to be added here.
KNOBS = {
    "persuade.solver.PiecewiseValue.derivative": {"side": "right"},
    "persuade.solver.verify_solution": {"n_points": 10_000},
    "persuade.oracle.make_grid": {"extra": ()},
    "persuade.oracle.value_iteration": {"tol": 1e-6},
    "persuade.sim.simulate": {"max_tail": 0.05},
    "persuade.cli.main": {"argv": None},
}


def _callables(module):
    mod = importlib.import_module(module)
    for name in mod.__all__:
        obj = getattr(mod, name)
        if inspect.isfunction(obj):
            yield f"{module}.{name}", obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)   # static and class methods
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{module}.{name}.{attr}", member


def test_public_knobs():
    found = {}
    for module in MODULES[1:]:
        for qualname, fn in _callables(module):
            defaults = {p.name: p.default for p in inspect.signature(fn).parameters.values()
                        if p.default is not inspect.Parameter.empty}
            if defaults:
                found[qualname] = defaults
    assert found == KNOBS


def _modules_loaded_by_import(module="persuade"):
    src = os.path.dirname(os.path.dirname(persuade.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); import {module}; "
            "print(' '.join(sorted(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    return set(out.stdout.split())


def test_import_does_not_load_scipy_sparse():
    # The package needs numpy only; scipy is a test dependency.
    assert "scipy.sparse" not in _modules_loaded_by_import()


def test_cli_import_does_not_load_openssl():
    # hashlib loads OpenSSL (several MB); only writing a manifest needs it.
    assert "_hashlib" not in _modules_loaded_by_import("persuade.cli")


def test_import_loads_no_pool_machinery():
    # simulate imports multiprocessing only when it starts workers; loading it,
    # concurrent.futures or logging at import would cost every caller.
    loaded = _modules_loaded_by_import()
    assert not loaded & {"concurrent.futures", "multiprocessing", "logging"}


# Runs with scipy blocked: any import of it raises ImportError.
NO_SCIPY_SESSION = """
import json, sys
sys.modules["scipy"] = None
sys.path.insert(0, SRC)
from persuade import cli, model, oracle, solver
with open("canon.json", "w") as handle:
    json.dump(CANON, handle)
for argv in (["oracle", "--delta", "0.05"], ["sweep", "--deltas", "0.1,0.05"]):
    code = cli.main(argv + ["--config", "canon.json", "--out", argv[0] + ".csv",
                            "--grid-gap", "0.01"])
    if code:
        sys.exit(f"persuade {argv[0]} exited {code}")
problem = model.load_problem("canon.json")
solution = solver.solve(problem)
grid = oracle.make_grid(problem, 0.01, extra=solution.cutoffs)
for policy in (solution.policy, oracle.myopic_policy(problem),
               oracle.slide_only_policy(problem), oracle.full_disclosure_policy(problem)):
    oracle.evaluate_policy_discrete(problem, policy, 0.05, grid)
"""


def test_runtime_never_imports_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(persuade.__file__))
    code = f"SRC = {src!r}\nCANON = {CANON_RAW!r}\n" + NO_SCIPY_SESSION
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == ["oracle.csv", "sweep.csv"]


def test_import_loads_the_library_but_not_the_cli():
    # `import persuade` is what the benchmark's import-time probe measures.
    loaded = {name for name in _modules_loaded_by_import()
              if name.split(".")[0] == "persuade"}
    assert loaded == set(MODULES) - {"persuade.cli"}


def test_benchmark_tracer_installs_and_restores():
    # perfbench/run.py --trace wraps named functions and methods of the
    # package; a rename or a method moved off its class breaks the traced
    # benchmark runs, so install and uninstall the tracer here.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(root, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = [importlib.import_module(m) for m in MODULES]
    before = {mod.__name__: dict(vars(mod)) for mod in modules}
    classes = {(module, cls, attr): vars(getattr(sys.modules[module], cls))[attr]
               for module, cls, attr, _ in tracing.METHODS}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for module, attr, _, _ in tracing.FUNCTIONS:
            assert getattr(sys.modules[module], attr) is not before[module][attr], attr
        for (module, cls, attr), original in classes.items():
            assert vars(getattr(sys.modules[module], cls))[attr] is not original, attr
    finally:
        tracer.uninstall()
    for mod in modules:
        changed = [key for key, value in before[mod.__name__].items() if vars(mod)[key] is not value]
        assert not changed, f"{mod.__name__} still holds wrappers for {changed}"
    for (module, cls, attr), original in classes.items():
        assert vars(getattr(sys.modules[module], cls))[attr] is original, attr
