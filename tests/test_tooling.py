"""The benchmark's layer table and own tests against the program, the count of cache
sites, and the independence of the brute-force oracles from the trace engines."""
import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# process-lifetime caches hold their entries until exit; the count may only fall
MAX_LRU_CACHE_SITES = 2
# stdlib modules `import qzeta.cli` must not load: each costs every process
# its import, and without a bytecode cache its compile; the list may only grow
NOT_LOADED_BY_IMPORT = ("logging", "traceback", "dataclasses", "inspect", "ast", "dis",
                        "tokenize")
# the brute-force oracles check the trace engines, so neither they nor the fock
# helpers they call may name any engine part below; the list may only grow
ORACLES = ("fock_trace_bruteforce", "gamma_commutation_check", "_gamma_commutation",
           "_gamma_minus_commute", "_gamma_plus_minus_commute")
ENGINE_NAMES = ("_TraceEngine", "SurfaceTraceEngine", "EquivTraceEngine", "_equiv_engine",
                "equiv_trace", "trace_product", "_contract_trace", "commutator", "_merge",
                "_wick_graphs")


def tracer_layers():
    """LAYERS of perfbench/tracer.py, read from its source without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no LAYERS")


@pytest.mark.parametrize("layer, module, attr, kind", tracer_layers())
def test_every_traced_layer_resolves(layer, module, attr, kind):
    # the tracer wraps a method found in its class's own __dict__, so an
    # inherited or deleted one would break a traced benchmark run
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, name = attr.split(".")
        namespace = vars(getattr(owner, cls_name))
        assert name in namespace, f"{layer}: {attr} is not defined in its class"
        value = namespace[name]
    else:
        value = getattr(owner, attr)
    assert callable(value), layer


def test_lru_cache_sites_do_not_grow():
    use = re.compile(r"@(functools\.)?(lru_cache|cache)\b|\blru_cache\(")
    sites = [f"{path.name}:{n}"
             for path in sorted((ROOT / "src" / "qzeta").glob("*.py"))
             for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if use.search(line) and not line.lstrip().startswith(("import", "from"))]
    assert len(sites) <= MAX_LRU_CACHE_SITES, sites


@pytest.mark.parametrize("oracle", ORACLES)
def test_oracles_name_no_engine(oracle):
    tree = ast.parse((ROOT / "src" / "qzeta" / "fock.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    named, todo = set(), [oracle]
    while todo:
        for node in ast.walk(functions[todo.pop()]):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name and name not in named:
                named.add(name)
                if name in functions:
                    todo.append(name)
    assert not named.intersection(ENGINE_NAMES), sorted(named.intersection(ENGINE_NAMES))


def test_import_loads_no_unneeded_stdlib():
    # only what the import adds to the interpreter's own modules counts, so
    # modules a host's site hooks load first do not matter
    probe = ("import sys; before = set(sys.modules); import qzeta.cli; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    done = subprocess.run(
        [sys.executable, "-c", probe], cwd=ROOT, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": "src"})
    assert done.returncode == 0, done.stderr[-2000:]
    added = set(done.stdout.split())
    assert "qzeta.cli" in added
    assert not added.intersection(NOT_LOADED_BY_IMPORT), sorted(added)


def test_benchmark_own_tests_pass():
    # the benchmark's references and checks run against this program, so a
    # change that breaks one of them fails here, not only in a benchmark run
    done = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench", "-p", "test_*.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert done.returncode == 0, done.stderr[-2000:]
