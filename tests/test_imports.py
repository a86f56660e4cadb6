"""The import path: a campaign loads the kernel layer only, and the package root loads nothing.

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

#: Every name ``decobs`` exports, by the module it comes from.
EXPORTS = {
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
    # a dataclass is counted once however many modules hold it
    loaded, dataclasses, campaigns, main_is_function, dispatched = run_python(
        "import dataclasses, inspect, json, sys\n"
        "import decobs.cli\n"
        "names = sorted(m for m in sys.modules if m.startswith('decobs.'))\n"
        "made = sorted(v.__name__ for v in {v for m in names for v in vars(sys.modules[m]).values()\n"
        "                                   if isinstance(v, type) and dataclasses.is_dataclass(v)})\n"
        "cli = vars(decobs.cli)\n"
        "runs = sorted(n for n, v in cli.items() if n.startswith('run_') and inspect.isfunction(v))\n"
        "same = sorted(c for c, f in cli['_DISPATCH'].items() if cli.get(f.__name__) is f)\n"
        "print(json.dumps([names, made, runs, inspect.isfunction(cli.get('main')), same]))\n"
    )
    assert not {"decobs.states", "decobs.processes", "decobs.povm", "decobs.serialize"} & set(loaded)
    assert loaded == [
        f"decobs.{name}"
        for name in (
            "campaigns", "cli", "entropy", "errors", "majorization", "matcore", "sampling", "stacks", "tolerances",
        )
    ]
    assert dataclasses == ["CampaignConfig", "CampaignResult", "Dominance", "EntropyFunctional"]
    assert campaigns == [
        "run_counterexample", "run_holevo", "run_majorization", "run_povm_classify", "run_s_theorems",
    ]
    assert main_is_function
    assert dispatched == sorted(["verify-s-theorems", "majorization", "counterexample", "holevo", "povm-classify"])


def test_the_package_root_loads_no_submodule():
    loaded = run_python("import json, sys, decobs\nprint(json.dumps([m for m in sys.modules if m.startswith('decobs.')]))")
    assert loaded == []


def test_the_package_exports_exactly_these_names():
    # a name left in the package's table after its function is deleted fails here
    import decobs

    assert decobs._EXPORTS == EXPORTS


@pytest.mark.parametrize("first", ["decobs", "decobs.cli"])
def test_every_exported_name_is_its_home_modules_object(first):
    # loading a submodule binds it on the package; the function `entropy` must still win
    wrong = run_python(
        f"import importlib, json\nimport {first}\nimport decobs\n"
        f"exports = {EXPORTS!r}\n"
        "wrong = [name for home, names in exports.items() for name in names\n"
        "         if getattr(decobs, name) is not getattr(importlib.import_module('decobs.' + home), name)\n"
        "         or name not in dir(decobs)]\n"
        "print(json.dumps(wrong))\n"
    )
    assert wrong == []


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
