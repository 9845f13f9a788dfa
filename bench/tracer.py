"""Outside-in layer tracer for fibsemi, and the traced child process.

The tracer replaces the public functions of the four layers (``fibonacci``,
``fib_family``, ``semigroup_core`` and ``cli``) with timing wrappers, without
touching the source.  A function imported by name into another module is a
separate binding, so every module attribute that holds the original is
replaced; methods are replaced on their class.  ``uninstall`` puts every
original back.

Spans are aggregated per name rather than kept one by one: ``table 0 1200``
makes about 723k ``fib`` calls.  A span's self time is its duration minus the
durations of the wrapped calls made inside it, so the self times of all spans
add up to the duration of the outermost one (``cli.main``).

Run ``python3 bench/tracer.py <fibsemi arguments>`` with ``src`` on
PYTHONPATH to trace one CLI call in a fresh interpreter.  The CLI writes its
output to stdout as usual; the aggregated spans and counters go to stderr as
the last line, in JSON.  A fresh interpreter per traced run matters because
the Fibonacci memo in ``fibonacci`` is module-global.
"""
from __future__ import annotations

import importlib
import json
import sys
from functools import wraps
from time import perf_counter

FUNCTIONS = {
    "fibonacci": ("fib", "gamma", "beta", "zeckendorf"),
    "fib_family": (
        "family_generators", "family_apery", "family_apery_value",
        "family_frobenius", "family_genus", "family_genus_sum",
        "family_genus_recurrence_check", "kaplansky_count",
        "zeckendorf_bijection_check", "family_summary",
    ),
    "cli": ("main",),
}
# ``__init__`` is traced under the class name: construction and validation.
METHODS = {
    "semigroup_core": {
        "NumericalSemigroup": (
            "__init__", "contains", "apery", "frobenius", "genus",
            "minimal_generators", "embedding_dimension", "n_count", "gaps",
            "wilf_check", "summary",
        ),
        "AperyTable": ("__init__",),
    },
}
MODULES = ("fibsemi", "fibsemi.fibonacci", "fibsemi.semigroup_core",
           "fibsemi.fib_family", "fibsemi.cli", "fibsemi.__main__")


def _method_span(mod: str, cls: str, meth: str) -> str:
    return f"{mod}.{cls}" if meth == "__init__" else f"{mod}.{cls}.{meth}"


def span_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() for fn in fns]
    for mod, classes in METHODS.items():
        for cls, methods in classes.items():
            names += [_method_span(mod, cls, m) for m in methods]
    return names


class Tracer:
    """Aggregated spans (calls, total and self seconds) plus layer counters."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters = {
            "fib_family.family_apery.entries": 0,
            "semigroup_core.NumericalSemigroup.apery.residues": 0,
            "semigroup_core.oracle_instances": 0,
            "semigroup_core.oracle_instances_failed": 0,
        }
        self._child_time: list[float] = []  # one accumulator per open span
        self._patched: list[tuple[object, str, object]] = []
        self._apery_tables: set[int] = set()
        self._failed_oracles: set[int] = set()
        self._keep: list[object] = []  # keeps ids in the sets above unique

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn, observe=None):
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])
        child_time = self._child_time

        @wraps(fn)
        def traced(*args, **kwargs):
            child_time.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if observe is not None:
                    observe(args, None, failed=True)
                raise
            else:
                if observe is not None:
                    observe(args, result, failed=False)
                return result
            finally:
                dt = perf_counter() - t0
                inner = child_time.pop()
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - inner
                if child_time:
                    child_time[-1] += dt

        return traced

    def _observe_family_apery(self, args, table, failed):
        if not failed:
            self.counters["fib_family.family_apery.entries"] += table.n

    def _observe_apery(self, args, table, failed):
        # a table object not returned before was computed, not taken from the cache
        if not failed and id(table) not in self._apery_tables:
            self._apery_tables.add(id(table))
            self._keep.append(table)
            self.counters["semigroup_core.NumericalSemigroup.apery.residues"] += table.n
        self._observe_oracle(args, table, failed)

    def _observe_oracle(self, args, result, failed):
        sg = args[0]
        if failed and id(sg) not in self._failed_oracles:
            self._failed_oracles.add(id(sg))
            self._keep.append(sg)
            self.counters["semigroup_core.oracle_instances_failed"] += 1

    def _observe_oracle_init(self, args, result, failed):
        if not failed:
            self.counters["semigroup_core.oracle_instances"] += 1

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        observers = {
            "fib_family.family_apery": self._observe_family_apery,
            "semigroup_core.NumericalSemigroup": self._observe_oracle_init,
            "semigroup_core.NumericalSemigroup.apery": self._observe_apery,
        }
        for mod, fns in FUNCTIONS.items():
            home = importlib.import_module(f"fibsemi.{mod}")
            for fn_name in fns:
                original = getattr(home, fn_name, None)
                if original is None:
                    continue
                name = f"{mod}.{fn_name}"
                traced = self._wrap(name, original, observers.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, traced)
        for mod, classes in METHODS.items():
            home = importlib.import_module(f"fibsemi.{mod}")
            for cls_name, methods in classes.items():
                cls = getattr(home, cls_name)
                for meth in methods:
                    original = cls.__dict__.get(meth)
                    if original is None:
                        continue
                    name = _method_span(mod, cls_name, meth)
                    # any oracle method that raises marks its instance as failed
                    observe = observers.get(name, self._observe_oracle
                                            if cls_name == "NumericalSemigroup" else None)
                    self._patched.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(name, original, observe))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------

    def report(self) -> dict:
        return {
            "spans": {name: {"calls": c, "total_s": t, "self_s": s}
                      for name, (c, t, s) in self.spans.items()},
            "counters": dict(self.counters),
        }


def main(argv: list[str]) -> int:
    import fibsemi.cli

    with Tracer() as tracer:
        code = fibsemi.cli.main(argv)
    sys.stdout.flush()
    sys.stderr.write("\n" + json.dumps(tracer.report()) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
