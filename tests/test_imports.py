"""The import path: a campaign loads the kernel layer only, and the package root loads and exports nothing.

Each check runs in a fresh interpreter, because this test process has
long since imported every module.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: The 28 names the package root exported before it stopped exporting any, by the module that defines each.
FORMER_ROOT_NAMES = {
    "entropy": (
        "EntropyFunctional", "builtin_functionals", "entropy", "entropy_of_spectrum", "linear", "log_det",
        "parse_functional", "renyi", "to_bits", "von_neumann",
    ),
    "errors": ("ValidationError",),
    "matcore": ("hermitian_spectrum", "is_unitary", "partial_trace", "tensor_product"),
    "povm": (
        "Povm", "ancilla_factors", "apply_povm", "counterexample_1", "counterexample_2", "is_purity_preserving",
        "purify_ancilla",
    ),
    "states": ("DensityMatrix", "ProjectorSet", "PureState", "basis_state", "density_from_pure", "maximally_mixed"),
}


def run_python(code: str):
    """Run ``code`` in a fresh interpreter that imports from ``src``; return what it prints as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60, check=True
    )
    return json.loads(result.stdout)


def test_a_campaign_loads_the_kernel_layer_only():
    # the benchmark times the functions named run_* that it finds in vars(decobs.cli),
    # and wraps them wherever a module holds them, the dispatch table included;
    # `signal` is loaded only to kill a worker, and `csv` and `json` only by their
    # writers; the config, result and kernel values are records, not dataclasses,
    # so neither `dataclasses` nor the `copy` it imports is loaded; numpy is loaded
    # first, and the checks' own imports come after the snapshot
    loaded, made, campaigns, main_is_function, dispatched, added = run_python(
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "import decobs.cli\n"
        "added = sorted({'signal', 'csv', 'json', 'dataclasses', 'copy'} & (set(sys.modules) - before))\n"
        "import inspect, json\n"
        "names = sorted(m for m in sys.modules if m.startswith('decobs.'))\n"
        "made = sorted(v.__name__ for m in names for v in vars(sys.modules[m]).values()\n"
        "              if isinstance(v, type) and hasattr(v, '__dataclass_fields__'))\n"
        "cli = vars(decobs.cli)\n"
        "runs = sorted(n for n, v in cli.items() if n.startswith('run_') and inspect.isfunction(v))\n"
        "same = sorted(c for c, f in cli['_DISPATCH'].items() if cli.get(f.__name__) is f)\n"
        "print(json.dumps([names, made, runs, inspect.isfunction(cli.get('main')), same, added]))\n"
    )
    assert added == []
    assert made == []
    assert not {"decobs.states", "decobs.processes", "decobs.povm", "decobs.serialize"} & set(loaded)
    assert loaded == [
        f"decobs.{name}"
        for name in (
            "campaigns", "cli", "entropy", "errors", "majorization", "matcore", "records", "sampling", "stacks",
            "tolerances",
        )
    ]
    assert campaigns == [
        "run_counterexample", "run_holevo", "run_majorization", "run_povm_classify", "run_s_theorems",
    ]
    assert main_is_function
    assert dispatched == sorted(["verify-s-theorems", "majorization", "counterexample", "holevo", "povm-classify"])


def test_a_csv_report_leaves_json_unloaded():
    # the report goes to a buffer, so that this interpreter's stdout carries only the answer
    code, csv_loaded, json_loaded, header = run_python(
        "import contextlib, io, sys\n"
        "import decobs.cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    code = decobs.cli.main(['holevo', '--dim', '2', '--trials', '3', '--format', 'csv'])\n"
        "found = ['csv' in sys.modules, 'json' in sys.modules]\n"
        "import json\n"
        "print(json.dumps([code, *found, out.getvalue().splitlines()[0]]))\n"
    )
    assert (code, csv_loaded, json_loaded) == (0, True, False)
    assert header.startswith("trial,dim,functional,")


def test_the_package_root_loads_no_submodule():
    # the root exports no name, so `decobs.entropy` is the module, as the import system binds it
    loaded, public, entropy_is_the_module = run_python(
        "import json, sys, decobs\n"
        "loaded = [m for m in sys.modules if m.startswith('decobs.')]\n"
        "public = [n for n in dir(decobs) if not n.startswith('_')]\n"
        "import decobs.entropy\n"
        "print(json.dumps([loaded, public, decobs.entropy is sys.modules['decobs.entropy']]))\n"
    )
    assert loaded == []
    assert public == []
    assert entropy_is_the_module


@pytest.mark.parametrize("home", sorted(FORMER_ROOT_NAMES))
def test_every_former_root_name_is_defined_in_its_home_module(home):
    # the names left the root, not the package: each is imported from the module that defines it
    module = importlib.import_module(f"decobs.{home}")
    misplaced = [name for name in FORMER_ROOT_NAMES[home] if getattr(module, name).__module__ != module.__name__]
    assert misplaced == []


def test_an_unknown_name_is_an_attribute_error():
    import decobs

    with pytest.raises(AttributeError, match="has no attribute 'stacks_of_nothing'"):
        getattr(decobs, "stacks_of_nothing")


def trace_layers() -> tuple[str, ...]:
    """The ``LAYERS`` tuple of ``perfbench/child.py``, read from its source."""
    for node in ast.parse((ROOT / "perfbench" / "child.py").read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/child.py assigns no LAYERS")


def test_every_traced_layer_is_a_module():
    # the benchmark's --trace 1 imports decobs.<layer> for each entry and wraps its public functions
    layers = trace_layers()
    assert layers
    for layer in layers:
        assert importlib.import_module(f"decobs.{layer}").__name__ == f"decobs.{layer}"
