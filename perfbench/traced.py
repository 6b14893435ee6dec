"""Run one benchmark command with spans around the package's public functions.

    PYTHONPATH=src python3 perfbench/traced.py SPANS.json cli train --config ...
    PYTHONPATH=src python3 perfbench/traced.py SPANS.json calibrate --config ...

Every function named in layers.SPANS is wrapped in its defining module
and in every module that imported it by name, so calls through either
binding are seen. Spans stay in memory and are written to SPANS.json
when the command ends, with the time taken to import the package. The
command's own output and exit code are unchanged.
"""

from __future__ import annotations

import time

_t0 = time.perf_counter()
import omnipredict  # noqa: E402  (the import is what startup_s measures)

STARTUP_S = time.perf_counter() - _t0

import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

from layers import SIZED, SPANS  # noqa: E402

_SIZE_OF = {
    "predictor.evaluate_all": lambda args: len(args[0].terms),
    "rct.ips_risk_estimate": lambda args: args[0].n,
    "rct.model_risk_estimate": lambda args: len(args[0]),
    "audit.CscInstance.mean_cost": lambda args: args[0].n,
}
assert set(_SIZE_OF) == set(SIZED)


class Recorder:
    """Spans as [name, start, end, parent index, size], in start order."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()

    def wrap(self, name: str, fn):
        size_of = _SIZE_OF.get(name)
        spans = self.spans
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1, None]
            if size_of is not None:
                span[4] = size_of(args)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced


def install(recorder: Recorder, extra_modules=()) -> None:
    """Replace every binding of every traced function with its wrapper."""
    originals = {}
    for name, (module_name, attrs) in SPANS.items():
        module = importlib.import_module(module_name)
        for attr in attrs:
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            fn = owner.__dict__[fn_name] if owner_name else getattr(module, fn_name)
            wrapped = recorder.wrap(name, fn)
            setattr(owner, fn_name, wrapped)
            if not owner_name:
                originals[id(fn)] = wrapped
    modules = [m for n, m in sys.modules.items() if n.startswith("omnipredict")]
    for module in list(modules) + list(extra_modules):
        for attr, value in list(vars(module).items()):
            wrapped = originals.get(id(value))
            if wrapped is not None and wrapped is not value:
                setattr(module, attr, wrapped)


def main(argv) -> int:
    spans_path, entry, args = argv[0], argv[1], argv[2:]
    recorder = Recorder()
    if entry == "cli":
        import omnipredict.cli as module
    elif entry == "calibrate":
        import calibrate as module
    else:
        raise SystemExit(f"unknown entry {entry!r}")
    install(recorder, [module])
    try:
        return module.main(args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"startup_s": STARTUP_S, "spans": recorder.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
