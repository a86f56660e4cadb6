"""One benchmark call: run the decobs CLI in this process with timing hooks.

Usage::

    python child.py OUT MODE -- <decobs arguments>

The CLI runs through ``decobs.__main__``, as ``python -m decobs`` runs it.
Before that, this script wraps functions from outside the package and
records a span (name, start, end, parent, failed) around each wrapped call:

- MODE ``plain`` wraps only ``decobs.cli.main`` and the campaign functions
  ``decobs.cli.run_*``, which gives set-up time and campaign time at the cost
  of two spans per call.
- MODE ``trace`` also wraps every public function of the library layers
  (``LAYERS``) and the ``__post_init__`` validation of their value types,
  and counts every ``numpy.linalg.eigvalsh`` call against the layer that
  issued it.

Spans stay in memory and are written to OUT as JSON when the CLI exits.
Times are ``time.monotonic()`` readings, the clock the parent process also
uses, so the parent can relate them to the moment it spawned this process.
"""

from __future__ import annotations

import sys
import time

#: Library modules whose public functions form the traced layers.
LAYERS = ("sampling", "states", "processes", "matcore", "entropy", "majorization")


class Recorder:
    """In-memory span and eigensolve log of one process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent index or -1, failed]
        self.stack: list[int] = []
        self.eigvalsh: dict[str, list[int]] = {}  # issuing layer -> [calls, bytes]

    def wrap(self, name: str, func, home: dict | None = None):
        """Return ``func`` recording a span per call.

        Calls whose caller runs in the module namespace ``home`` are passed
        straight through: a span marks a call *into* a layer, not the layer's
        calls to itself.
        """
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock, frame = self.spans, self.stack, time.monotonic, sys._getframe

        def wrapper(*args, **kwargs):
            if home is not None and frame(1).f_globals is home:
                return func(*args, **kwargs)
            span = [index, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return func(*args, **kwargs)
            except BaseException:
                span[4] = 1
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def count_eigvalsh(self, func):
        """Return ``func`` counting calls and computed bytes per issuing layer."""
        names, spans, stack, tally = self.names, self.spans, self.stack, self.eigvalsh

        def eigvalsh(a, *args, **kwargs):
            values = func(a, *args, **kwargs)
            layer = names[spans[stack[-1]][0]].split(".")[0] if stack else "outside"
            entry = tally.setdefault(layer, [0, 0])
            entry[0] += 1
            entry[1] += getattr(a, "nbytes", 0) + values.nbytes
            return values

        return eigvalsh

    def dump(self, path: str, extra: dict) -> None:
        import json

        with open(path, "w") as out:
            json.dump({**extra, "names": self.names, "spans": self.spans, "eigvalsh": self.eigvalsh}, out)


def install(recorder: Recorder, trace: bool) -> None:
    """Wrap the CLI entry points, and in trace mode every layer, by identity.

    Each original function object is replaced wherever a ``decobs`` module
    holds it: as a module attribute, under a name bound by ``from``-import,
    or as a value of a module-level dict such as the CLI's dispatch table.
    """
    import importlib
    import inspect

    import numpy

    cli = sys.modules["decobs.cli"]
    wrappers = {}
    for name, value in vars(cli).items():
        if inspect.isfunction(value) and (name == "main" or name.startswith("run_")):
            wrappers[id(value)] = recorder.wrap(f"cli.{name}", value)
    if trace:
        for layer in LAYERS:
            module = importlib.import_module(f"decobs.{layer}")
            for name, value in vars(module).items():
                if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    wrappers[id(value)] = recorder.wrap(f"{layer}.{name}", value, home=vars(module))
                elif inspect.isclass(value) and "__post_init__" in vars(value):
                    value.__post_init__ = recorder.wrap(f"{layer}.{name}.__post_init__", value.__post_init__)
        numpy.linalg.eigvalsh = recorder.count_eigvalsh(numpy.linalg.eigvalsh)

    modules = [m for n, m in sys.modules.items() if n == "decobs" or n.startswith("decobs.")]
    for module in modules:
        namespace = vars(module)
        for name, value in list(namespace.items()):
            if id(value) in wrappers:
                namespace[name] = wrappers[id(value)]
            elif type(value) is dict:
                for key, item in value.items():
                    if id(item) in wrappers:
                        value[key] = wrappers[id(item)]


def reference_task() -> list[float]:
    """Time a fixed piece of pure-Python work, to gauge the host's speed now.

    Each call runs it twice: before ``decobs`` is imported and after the CLI
    has exited, so together they bracket the call.  The work allocates no
    container objects, so the garbage collector cannot run inside it, and
    nothing the package does can change its duration.
    """
    started = time.monotonic()
    total = 0.0
    table = dict.fromkeys(range(97), 0.0)
    for i in range(150_000):
        key = i % 97
        table[key] += (i * i) % 7 / (key + 1)
        total += table[key] * 1e-9
    return [started, time.monotonic()]


def main() -> None:
    out_path, mode, separator, *cli_args = sys.argv[1:]
    if mode not in ("plain", "trace") or separator != "--":
        raise SystemExit("usage: child.py OUT plain|trace -- <decobs arguments>")
    before = reference_task()
    import decobs.cli  # noqa: F401  (the import is what is timed)

    imported = time.monotonic()
    # imported only now, so that ``decobs.cli`` pays for its own imports
    import runpy

    recorder = Recorder()
    install(recorder, mode == "trace")
    sys.argv = ["decobs", *cli_args]
    code = 0
    try:
        runpy.run_module("decobs", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        after = reference_task()
        recorder.dump(out_path, {"reference": [before, after], "import": [before[1], imported]})
    sys.exit(code)


if __name__ == "__main__":
    main()
