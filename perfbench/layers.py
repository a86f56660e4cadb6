"""Per-layer metrics from the spans of one traced call.

A layer is a ``decobs`` module (see ``child.LAYERS``) or the CLI.  Its self
time is the summed duration of its spans minus the time their child spans
cover; counts are divided by the call's trials so that they read per trial.
"""

from __future__ import annotations

#: Per-layer metric name -> unit, in the order they are reported.
UNITS = {
    "import.decobs_s": "s",
    "import.numpy_s": "s",
    "sampling.streams": "count/trial",
    "sampling.calls": "count/trial",
    "sampling.self_s": "s",
    "states.validations": "count/trial",
    "states.eigvalsh_calls": "count/trial",
    "states.self_s": "s",
    "states.failures": "count/trial",
    "processes.calls": "count/trial",
    "processes.self_s": "s",
    "matcore.spectra": "count/trial",
    "matcore.eigvalsh_calls": "count/trial",
    "matcore.useful_spectra_ratio": "ratio",
    "matcore.eig_bytes_computed": "B/trial",
    "matcore.self_s": "s",
    "entropy.evals": "count/trial",
    "entropy.self_s": "s",
    "majorization.checks": "count/trial",
    "majorization.self_s": "s",
    "cli.rows": "count/trial",
    "cli.assemble_s": "s",
    "cli.emit_s": "s",
    "trace.overhead_s": "s",
}

_EVALS = ("entropy.entropy_of_spectrum", "entropy.entropy", "entropy.expected_entropy")


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span: its duration minus its direct children's.

    Spans come from one thread and nest, so the children of a span cover
    disjoint parts of it and their durations add up to the covered time.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def find_span(names: list[str], spans: list[list], prefix: str) -> int | None:
    """Index of the first span whose name starts with ``prefix``, if any."""
    return next((i for i, span in enumerate(spans) if names[span[0]].startswith(prefix)), None)


def layer_metrics(record: dict, trials: int, rows: int) -> dict[str, float]:
    """Every per-layer metric except the import times and the tracing overhead."""
    names, spans = record["names"], record["spans"]
    own = self_times(spans)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    count = dict.fromkeys(("streams", "validations", "states_failed", "spectra", "evals", "checks"), 0)
    for span, seconds in zip(spans, own):
        name = names[span[0]]
        layer = name.split(".")[0]
        self_s[layer] = self_s.get(layer, 0.0) + seconds
        calls[layer] = calls.get(layer, 0) + 1
        count["streams"] += name in ("sampling.stream", "sampling.trial_stream")
        count["validations"] += layer == "states" and name.endswith(".__post_init__")
        count["states_failed"] += layer == "states" and bool(span[4])
        count["spectra"] += name == "matcore.hermitian_spectrum"
        count["evals"] += name in _EVALS
        count["checks"] += name.startswith("majorization.check_")
    eig_calls = sum(calls_ for calls_, _ in record["eigvalsh"].values())
    eig_bytes = sum(bytes_ for _, bytes_ in record["eigvalsh"].values())
    campaign = find_span(names, spans, "cli.run_")
    main = find_span(names, spans, "cli.main")
    return {
        "sampling.streams": count["streams"] / trials,
        "sampling.calls": calls.get("sampling", 0) / trials,
        "sampling.self_s": self_s.get("sampling", 0.0),
        "states.validations": count["validations"] / trials,
        "states.eigvalsh_calls": record["eigvalsh"].get("states", [0, 0])[0] / trials,
        "states.self_s": self_s.get("states", 0.0),
        "states.failures": count["states_failed"] / trials,
        "processes.calls": calls.get("processes", 0) / trials,
        "processes.self_s": self_s.get("processes", 0.0),
        "matcore.spectra": count["spectra"] / trials,
        "matcore.eigvalsh_calls": eig_calls / trials,
        "matcore.useful_spectra_ratio": count["spectra"] / eig_calls if eig_calls else 0.0,
        "matcore.eig_bytes_computed": eig_bytes / trials,
        "matcore.self_s": self_s.get("matcore", 0.0),
        "entropy.evals": count["evals"] / trials,
        "entropy.self_s": self_s.get("entropy", 0.0),
        "majorization.checks": count["checks"] / trials,
        "majorization.self_s": self_s.get("majorization", 0.0),
        "cli.rows": rows / trials,
        "cli.assemble_s": own[campaign],
        "cli.emit_s": spans[main][2] - spans[campaign][2],
    }


def import_times(stderr: str) -> dict[str, float]:
    """``import.decobs_s`` and ``import.numpy_s`` from ``-X importtime`` output.

    ``import.numpy_s`` is the cumulative time of the outermost ``numpy``
    imports; ``import.decobs_s`` is that of the outermost ``decobs`` imports
    minus the numpy imports nested in them.
    """
    # the output is post-order: a module's line follows those of the modules it
    # imported, indented one level (two spaces) deeper
    pending: dict[int, list] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, field = line[len("import time:"):].split("|")
        name = field[1:]
        depth = (len(name) - len(name.lstrip(" "))) // 2
        node = (name.strip(), int(cumulative) * 1e-6, pending.pop(depth + 1, []))
        pending.setdefault(depth, []).append(node)

    def outermost(nodes, package):
        for node in nodes:
            name, _, children = node
            if name == package or name.startswith(package + "."):
                yield node
            else:
                yield from outermost(children, package)

    roots = pending.get(0, [])
    numpy_s = sum(seconds for _, seconds, _ in outermost(roots, "numpy"))
    decobs_s = sum(
        seconds - sum(inner for _, inner, _ in outermost(children, "numpy"))
        for _, seconds, children in outermost(roots, "decobs")
    )
    return {"import.decobs_s": decobs_s, "import.numpy_s": numpy_s}
