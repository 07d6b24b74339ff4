"""Run one ``agiecon`` command in-process with every layer boundary traced.

    python3 perfbench/tracer.py SPANS.json COMMAND --config FILE --out DIR ...

The tracer imports the package, replaces the public functions of each
layer at the module-level names their callers look up (``agiecon.cli.*``,
``agiecon.scenario.*``, ``agiecon.transition.human_power``) with timing
wrappers, calls ``agiecon.cli.main(argv)`` and exits with its status.
Nothing in the package changes; the wrappers only time and count.

Calls into coarse layers (config parsing, ``run_scenario``, ``power_curve``,
``line_chart``, ``fit_cobb_douglas``, ``run_diagnostics``, ...) are recorded
as spans: name, start, end, parent span, and an item count.  Per-step and
per-point functions (``format_number``, ``output``, ``marginal_product``,
``model_technology``, ``human_power``) run up to a million times per
command, so their calls are aggregated per (name, parent span) into a call
count and a total time instead of one span each.  Spans are kept in memory
and written to SPANS.json when the command returns.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


class Recorder:
    """In-memory spans plus aggregated per-call counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, items]
        self.leaves: dict[tuple[str, int], list] = {}  # (name, parent) -> [calls, seconds]
        self.stack: list[int] = [-1]

    def span(self, name: str, fn, items=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1], None]
            spans.append(record)
            stack.append(len(spans) - 1)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if items is not None:
                record[4] = items(args, result)
            return result

        return wrapper

    def leaf(self, name: str, fn):
        leaves, stack = self.leaves, self.stack

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                entry = leaves.get((name, stack[-1]))
                if entry is None:
                    leaves[(name, stack[-1])] = [1, elapsed]
                else:
                    entry[0] += 1
                    entry[1] += elapsed

        return wrapper

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "leaves": [[name, parent, calls, seconds]
                       for (name, parent), (calls, seconds) in self.leaves.items()],
        }


# (module, attribute, item counter) for span-level boundaries
_SPANS = (
    ("cli", "parse_config_file", None),
    ("cli", "build_scenario_config", None),
    ("cli", "model_output", None),
    ("cli", "model_wages", None),
    ("cli", "run_scenario", lambda args, result: len(result)),
    ("cli", "detect_collapse", None),
    ("cli", "power_curve", lambda args, result: len(result)),
    ("cli", "line_chart", lambda args, result: len(result.encode("utf-8"))),
    ("cli", "fit_cobb_douglas", lambda args, result: len(args[0])),
    ("cli", "run_diagnostics", None),
)
# (module, attribute) for per-call boundaries, aggregated
_LEAVES = (
    ("cli", "format_number"),
    ("scenario", "model_technology"),
    ("scenario", "output"),
    ("scenario", "marginal_product"),
    ("scenario", "human_power"),
    ("transition", "human_power"),
)


def install(recorder: Recorder):
    """Wrap every traced boundary; returns the traced ``agiecon.cli.main``."""
    import agiecon.cli
    import agiecon.scenario
    import agiecon.transition

    modules = {"cli": agiecon.cli, "scenario": agiecon.scenario, "transition": agiecon.transition}
    for module, name, items in _SPANS:
        target = modules[module]
        setattr(target, name, recorder.span(f"{module}.{name}", getattr(target, name), items))
    for module, name in _LEAVES:
        target = modules[module]
        setattr(target, name, recorder.leaf(f"{module}.{name}", getattr(target, name)))
    return recorder.span("cli.main", agiecon.cli.main)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    traced_main = install(recorder)
    code = traced_main(argv)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(recorder.dump(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
