"""The import path: a call loads its own campaign only, and the package root loads and exports nothing.

``import decobs.cli`` loads the campaigns' shared core and the kernel
modules it calls, and no campaign module; :func:`decobs.cli.main` loads the
parsed command's campaign module before it freezes the heap, and the process
entry :func:`decobs.cli.command` freezes it once more after ``main``.  Each check
runs in a fresh interpreter, because this test process has long since
imported every module.  The in-process tests and the digest grid load every
campaign module, so only these checks see a campaign that misses an import.
"""

import ast
import hashlib
import importlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: The names the package root exported before it stopped exporting any, by the module that defines each;
#: ``matcore.hermitian_spectrum`` and ``matcore.is_unitary``, two of the 28, are gone from the package.
FORMER_ROOT_NAMES = {
    "entropy": (
        "EntropyFunctional", "builtin_functionals", "entropy", "entropy_of_spectrum", "linear", "log_det",
        "parse_functional", "renyi", "to_bits", "von_neumann",
    ),
    "errors": ("ValidationError",),
    "matcore": ("partial_trace", "tensor_product"),
    "povm": (
        "Povm", "ancilla_factors", "apply_povm", "counterexample_1", "counterexample_2", "is_purity_preserving",
        "purify_ancilla",
    ),
    "states": ("DensityMatrix", "ProjectorSet", "PureState", "basis_state", "density_from_pure", "maximally_mixed"),
}


#: The ``decobs`` modules that ``import decobs.cli`` loads, and so every subcommand.
SHARED = (
    "decobs.campaigns", "decobs.cli", "decobs.entropy", "decobs.errors", "decobs.matcore", "decobs.records",
    "decobs.stacks", "decobs.tolerances",
)

#: The modules each subcommand loads on top of ``SHARED``: its campaign module and what that module runs.
#: The projector-family kernels of ``decobs.majorization`` check the families of a measurement too.
OWN = {
    "verify-s-theorems": ("decobs.campaigns.s_theorems", "decobs.sampling"),
    "majorization": ("decobs.campaigns.spectral", "decobs.majorization", "decobs.sampling"),
    "holevo": ("decobs.campaigns.holevo", "decobs.sampling"),
    **dict.fromkeys(
        ("counterexample", "povm-classify"),
        ("decobs.campaigns.measurements", "decobs.majorization", "decobs.povm", "decobs.sampling", "decobs.states"),
    ),
}


def python_env() -> dict:
    """This process's environment, with ``src`` first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_python(code: str):
    """Run ``code`` in a fresh interpreter that imports from ``src``; return what it prints as JSON."""
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=python_env(), timeout=60, check=True
    )
    return json.loads(result.stdout)


#: ``python -m decobs ARGS``, as ``-m`` runs it (``runpy.run_module``), which
#: also writes to stderr, as its last line, the ``decobs.*`` modules loaded at
#: each ``gc.freeze`` call, those loaded at the end, and the freeze count then.
WATCHED_RUN = """
import gc, json, runpy, sys

def loaded():
    return sorted(name for name in sys.modules if name.startswith("decobs."))

frozen = []
freeze = gc.freeze

def watched():
    frozen.append(loaded())
    freeze()

gc.freeze = watched
sys.argv = ["decobs", *sys.argv[1:]]
try:
    runpy.run_module("decobs", run_name="__main__", alter_sys=True)
finally:
    sys.stderr.write("\\n" + json.dumps([frozen, loaded(), gc.get_freeze_count()]))
"""


def test_a_campaign_loads_the_kernel_layer_only():
    # `import decobs.cli` loads no campaign module, and no decobs.majorization or
    # decobs.sampling, which only the campaign modules import; the benchmark times
    # the functions named run_* that it finds in vars(decobs.cli), and wraps them
    # wherever a module holds them, the dispatch table included;
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
    assert loaded == list(SHARED)
    assert campaigns == [
        "run_counterexample", "run_holevo", "run_majorization", "run_povm_classify", "run_s_theorems",
    ]
    assert main_is_function
    assert dispatched == sorted(["verify-s-theorems", "majorization", "counterexample", "holevo", "povm-classify"])


def digest_lines() -> dict[str, str]:
    """The lines of ``tests/report_digests.txt`` by their argv."""
    lines = (ROOT / "tests" / "report_digests.txt").read_text().splitlines()
    return {line.split(" ", 2)[2]: line for line in lines}


@pytest.mark.parametrize("command", sorted(OWN))
def test_each_subcommand_alone_loads_its_own_campaign_module_before_the_freeze(tmp_path, command):
    # the first grid line of the command; povm-classify reads a file the grid script writes
    argv = next(argv for argv in digest_lines() if argv.split()[0] == command)
    script = runpy.run_path(str(ROOT / "scripts" / "report_digests.py"))
    for name, build in script["POVM_FILES"].items():
        (tmp_path / name).write_text(json.dumps(script["povm_to_json"](build())))
    result = subprocess.run(
        [sys.executable, "-c", WATCHED_RUN, *argv.split()],
        capture_output=True, text=True, env=python_env(), cwd=tmp_path, timeout=60,
    )
    text = script["_TIMESTAMP"].sub('"timestamp": ""', result.stdout)
    assert f"{result.returncode} {hashlib.sha256(text.encode()).hexdigest()} {argv}" == digest_lines()[argv]
    frozen, at_exit, _ = json.loads(result.stderr.splitlines()[-1])
    # the measurement file reader loads when it reads, as the report writers do
    assert at_exit == sorted(SHARED + OWN[command] + (("decobs.serialize",) if command == "povm-classify" else ()))
    # main's window around the campaign, then the process entry's freeze for teardown
    assert frozen == [sorted(SHARED + OWN[command]), at_exit]


#: One digest-grid line for each of exit codes 0 and 1.
EXIT_LINES = {
    0: "verify-s-theorems --dim 2 --seed 0 --trials 4 --entropy von-neumann --entropy linear --entropy renyi:0.5"
    " --entropy renyi:2 --entropy log-det --entropy renyi:0.1 --entropy renyi:3 --format json --units nats",
    1: "majorization --dim 2 --trials 4 --tol 1e-30",
}


@pytest.mark.parametrize("code", sorted(EXIT_LINES))
def test_python_m_decobs_ends_with_the_heap_frozen_and_its_grid_line(code):
    argv = EXIT_LINES[code]
    result = subprocess.run(
        [sys.executable, "-c", WATCHED_RUN, *argv.split()], capture_output=True, text=True, env=python_env(), timeout=60
    )
    timestamp = runpy.run_path(str(ROOT / "scripts" / "report_digests.py"))["_TIMESTAMP"]
    text = timestamp.sub('"timestamp": ""', result.stdout)
    assert f"{result.returncode} {hashlib.sha256(text.encode()).hexdigest()} {argv}" == digest_lines()[argv]
    assert result.returncode == code
    assert json.loads(result.stderr.splitlines()[-1])[2] > 0


def test_an_input_error_still_exits_2_with_the_heap_frozen():
    # no grid line exits 2; the config refuses the dim before any trial runs
    result = subprocess.run(
        [sys.executable, "-c", WATCHED_RUN, "verify-s-theorems", "--dim", "0"],
        capture_output=True, text=True, env=python_env(), timeout=60,
    )
    assert (result.returncode, result.stdout) == (2, "")
    lines = result.stderr.splitlines()
    assert lines[0] == "error: --dim must be >= 1"
    assert json.loads(lines[-1])[2] > 0


def test_the_installed_script_and_python_m_run_the_same_entry():
    tomllib = pytest.importorskip("tomllib")
    target = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]["decobs"]
    tree = ast.parse((SRC / "decobs" / "__main__.py").read_text())
    imported = [
        (node.module, alias.name) for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names
    ]
    called = [
        node.args[0].func.id for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "sys.exit" and isinstance(node.args[0], ast.Call)
    ]
    assert imported == [("cli", called[0])] and len(called) == 1
    assert target == f"decobs.cli:{called[0]}"


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
