"""Each kernel rule of the paper's maps, and each input rule, has one implementation in ``decobs``.

The two maps come down to a few rules: an eigenvalue solve, the Bayes
update rho_k = D_k rho D_k^dagger / p_k of a branch, a partial trace, a Gram
product, and the byte planner that cuts stacks into blocks.  Their inputs
are checked by a few more: finite entries, square matrices, and a config
that parses and refuses every setting before a campaign runs.  Each test
reads the package's source and checks that one rule is written in one
place; the others call it.  The last rules are the ones the import path
rests on: each subcommand's campaign is a module of its own, which imports
the campaigns' shared core and no other campaign, and every import points
down the layers, so the package's modules import one another without a
cycle.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "decobs"


def module_name(path: Path) -> str:
    """The dotted name of a package file inside ``decobs``: "stacks", "campaigns", "campaigns.holevo".

    The package root is "__init__".
    """
    parts = path.relative_to(PACKAGE).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" and len(parts) > 1 else parts)


def nodes():
    """(module, enclosing top-level function or class or None, node) for every AST node of the package."""
    for path in sorted(PACKAGE.rglob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                yield module_name(path), owner, node


def readers(name: str) -> set[tuple[str, str | None]]:
    """Where ``name`` is read, as a name, an attribute or an imported name."""
    found = set()
    for module, owner, node in nodes():
        read = (
            (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, ast.ImportFrom) and any(alias.name == name for alias in node.names))
        )
        if read:
            found.add((module, owner))
    return found


def test_eigenvalues_are_solved_on_one_path():
    assert readers("eigvalsh") == {("stacks", "_check_square_stack")}


def test_only_matcore_calls_einsum():
    callers = {
        module
        for module, _, node in nodes()
        if isinstance(node, ast.Call) and "einsum" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
    }
    assert callers == {"matcore"}


def test_dead_branches_are_told_apart_in_stacks_and_entropy_only():
    # stacks normalizes every branch stack and cleans every probability row;
    # entropy skips the dead branches of an expected entropy
    assert {module for module, _ in readers("ZERO_PROBABILITY")} == {"stacks", "entropy"}


def budget_divisions() -> set[tuple[str, str | None]]:
    """Where a byte budget (a name ending in ``BYTES``, or ``budget``) is floor-divided."""
    found = set()
    for module, owner, node in nodes():
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv):
            dividend = node.left
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.FloorDiv):
            dividend = node.target
        else:
            continue
        names = {sub.id for sub in ast.walk(dividend) if isinstance(sub, ast.Name)}
        if any(name.endswith("BYTES") or name == "budget" for name in names):
            found.add((module, owner))
    return found


def test_byte_budgets_are_planned_in_one_place():
    assert budget_divisions() == {("stacks", "_blocks")}


def test_unit_row_overlaps_are_the_response_gram():
    calls = {
        node.func.id
        for module, owner, node in nodes()
        if (module, owner) == ("majorization", "gram_from_unit_rows")
        and isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
    }
    assert "response_gram_stack" in calls


def written(constant: str) -> set[tuple[str, str | None]]:
    """Where the string ``constant`` is written."""
    return {
        (module, owner)
        for module, owner, node in nodes()
        if isinstance(node, ast.Constant) and node.value == constant
    }


def test_finite_entries_are_checked_by_one_gate():
    assert written("finite-entries") == {("matcore", "require_finite")}


def test_squareness_is_checked_in_one_place():
    assert written("square") == {("matcore", "square_stack")}


def test_only_the_config_parses_entropy_selectors():
    # the campaigns read the functionals the config holds
    assert readers("parse_functional") == {("campaigns", None), ("campaigns", "CampaignConfig")}


def test_the_campaigns_raise_no_value_error():
    # the config refuses every setting that no campaign can run; it is the one ValueError of the package
    raised = {
        sub.id
        for module, owner, node in nodes()
        if module.split(".")[0] == "campaigns"
        and (module, owner) != ("campaigns", "CampaignConfig")
        and isinstance(node, ast.Raise)
        and node.exc is not None
        for sub in ast.walk(node.exc)
        if isinstance(sub, ast.Name)
    }
    assert "ValidationError" in raised and "ValueError" not in raised


def imported(path: Path) -> set[str]:
    """The package modules that the import statements of a package file name, by :func:`module_name`.

    ``from . import name`` names the module ``name`` when the package has
    one, and otherwise the package whose attribute it reads.
    """
    known = {module_name(other) for other in PACKAGE.rglob("*.py")}
    here = module_name(path).split(".")
    package = here if path.name == "__init__.py" else here[:-1]
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name.removeprefix("decobs.") for alias in node.names if alias.name.startswith("decobs."))
            continue
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            base = package[: len(package) - node.level + 1] + (node.module.split(".") if node.module else [])
        elif (node.module or "").startswith("decobs."):
            base = node.module.split(".")[1:]
        else:
            continue
        for alias in node.names:
            name = ".".join(base + [alias.name])
            found.add(name if name in known else ".".join(base))
    return found


def test_no_campaign_module_imports_another_and_the_core_imports_none():
    # main compiles only the parsed command's campaign module, so that module may not pull in another
    campaigns = {module_name(path): path for path in (PACKAGE / "campaigns").glob("*.py")}
    assert set(campaigns) == {
        "campaigns", "campaigns.holevo", "campaigns.measurements", "campaigns.s_theorems", "campaigns.spectral",
    }
    crossed = {
        name: sorted(imported(path) & set(campaigns) - {name, "campaigns"}) for name, path in campaigns.items()
    }
    assert crossed == dict.fromkeys(campaigns, [])
    # every campaign module imports the core, which imports no campaign module
    assert all("campaigns" in imported(path) for name, path in campaigns.items() if name != "campaigns")
    assert imported(campaigns["campaigns"]) & set(campaigns) == set()


def import_graph() -> dict[str, set[str]]:
    """The package modules that each package module imports, by :func:`module_name`.

    Every import statement counts: at module level, inside a function and
    under ``TYPE_CHECKING``.  ``decobs.cli`` also imports, through
    ``importlib``, the campaign module of each subcommand in the table it reads.
    """
    from decobs.campaigns import CAMPAIGN_MODULES

    graph = {module_name(path): imported(path) - {module_name(path)} for path in PACKAGE.rglob("*.py")}
    graph["cli"] |= {f"campaigns.{name}" for name in CAMPAIGN_MODULES.values()}
    return graph


def reachable(graph: dict[str, set[str]], start: str) -> set[str]:
    """The modules that ``start`` imports, directly or through other modules."""
    seen, todo = set(), list(graph[start])
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            todo.extend(graph[module])
    return seen


def test_imports_point_down_the_layers_without_a_cycle():
    graph = import_graph()
    reach = {module: reachable(graph, module) for module in graph}
    # each cycle as the modules it joins: those that import one another
    cycles = {
        tuple(sorted(other for other in reach[module] if module in reach[other]))
        for module in graph
        if module in reach[module]
    }
    assert sorted(cycles) == []
    # the bottom of the kernel layer: every check and map builds on it
    assert graph["matcore"] <= {"errors", "tolerances"}
