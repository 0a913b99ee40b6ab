"""What the benchmark's child process reads of weaktyp, checked from its source without running it.

``perfbench/child.py`` imports weaktyp modules and reads their
attributes; a renamed or deleted name there fails every benchmark run,
while the tests that exercise the package still pass.
"""

import ast
import importlib
import inspect
from pathlib import Path

from weaktyp import kernels

PERFBENCH_CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def weaktyp_reads():
    """(module, name) of every ``from weaktyp... import`` and every attribute read of such a module in child.py.

    A name imported from a package may be a submodule.  Attribute reads
    are resolved in the top-level statement (function) that binds the
    module, as child.py imports weaktyp inside its functions.
    """
    tree = ast.parse(PERFBENCH_CHILD.read_text(encoding="utf-8"))
    reads = set()
    for top in tree.body:
        modules = {}
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "weaktyp":
                for alias in node.names:
                    reads.add((node.module, alias.name))
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
            elif isinstance(node, ast.Import):
                reads.update((alias.name, None) for alias in node.names if alias.name.split(".")[0] == "weaktyp")
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                reads.add((modules[node.value.id], node.attr))
    return sorted(reads, key=str)


def resolves(module: str, name: str | None) -> bool:
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return False
    if name is None or hasattr(owner, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_every_weaktyp_name_perfbench_reads_exists():
    reads = weaktyp_reads()
    # the parse finds what every timed and traced run reads, so an empty failure list says something
    for needed in [("weaktyp.kernels", "simulate_trials"), ("weaktyp.kernels", "active_backend")]:
        assert needed in reads, needed
    assert [read for read in reads if not resolves(*read)] == []


def test_simulate_trials_keeps_the_parameters_traced_runs_bind_by_name():
    # child.py's span counter binds each call's arguments and reads these three
    assert {"count", "m", "n"} <= set(inspect.signature(kernels.simulate_trials).parameters)
