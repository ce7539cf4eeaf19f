"""Run one ``dpem`` CLI invocation in-process with layer spans recorded.

Usage (with ``src`` on PYTHONPATH):

    python perfbench/traced_cli.py SPANS.json -- run --config c.json --out o.csv

Spans are recorded from this file, around the calls into each layer; nothing
under ``src/`` is instrumented.  The callers import names directly
(``from .harness import run_experiment`` and so on), so each wrapper is
installed on the module where the caller looks the name up; a wrapper on the
defining module alone would record nothing.  The process exits with the
CLI's own exit code and writes its spans to SPANS.json.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time


class Tracer:
    """In-memory span recorder; safe to call from the CLI's worker threads.

    A span is [id, parent id, name, thread id, start, end, cell, counts].
    Spans nest along each thread's own stack.  A span opened with an empty
    stack in a worker thread gets the open fan-out span (the harness call
    that handed the cells to the thread pool) as its parent.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._fanout = 0

    def _thread_state(self):
        state = self._local
        if not hasattr(state, "stack"):
            state.stack, state.cell = [], None
        return state

    def wrap(self, fn, name, counts=None, cell=None, fanout=False, bind=True):
        """Wrap ``fn`` so each call records a span.

        ``name`` is a string or a function of the bound arguments; ``counts``
        maps (bound arguments, result) to a dict of counts; ``cell`` maps the
        bound arguments to the key that the span and its descendants carry.
        ``bind=False`` skips argument binding for hot calls whose counts need
        only the result.
        """
        signature = inspect.signature(fn) if bind else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._thread_state()
            bound = signature.bind(*args, **kwargs).arguments if signature else None
            span_name = name(bound) if callable(name) else name
            parent = state.stack[-1] if state.stack else self._fanout
            span_id = next(self._ids)
            outer_cell, outer_fanout = state.cell, self._fanout
            if cell is not None:
                state.cell = cell(bound)
            span_cell = state.cell
            state.stack.append(span_id)
            if fanout:
                self._fanout = span_id
            result, ok, start = None, False, time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                state.stack.pop()
                state.cell = outer_cell
                if fanout:
                    self._fanout = outer_fanout
                recorded = counts(bound, result) if counts is not None and ok else {}
                self.spans.append([span_id, parent, span_name, threading.get_ident(),
                                   start, end, span_cell, recorded])

        return traced


def _rows(bound, result):
    rows = len(bound["batch"])
    return {"rows": rows, "row_dims": rows * bound["spec"].d}


def _em_loop(bound, result):
    n0 = bound["config"].N0
    return {"iterations": n0, "n_used": n0 * (len(bound["batch"]) // n0)}


def _noise(bound, result):
    return {"values": int(getattr(result, "size", 1))}


def install(tracer: Tracer) -> list[str]:
    """Install every wrapper; returns the targets that no longer exist."""
    import numpy as np

    import dpem.cli as cli
    import dpem.em_engine as em_engine
    import dpem.harness as harness
    import dpem.mechanisms as mechanisms
    import dpem.models as models

    targets = [
        (cli, "run_experiment", dict(name="harness.run_experiment", fanout=True)),
        (cli, "run_classification", dict(name="harness.run_classification", fanout=True)),
        (cli, "load_classification_csv", dict(
            name="harness.load_classification_csv",
            counts=lambda b, r: {"rows": len(r[1])})),
        (cli, "write_results", dict(
            name="harness.write_results",
            counts=lambda b, r: {"bytes": os.path.getsize(b["path"])})),
        # The harness's cell boundaries: one (sweep value, rep) run, or one
        # classification repetition.
        (harness, "_run_cell", dict(
            name="harness.cell",
            cell=lambda b: f"{b['config'].sweep.name}={b['sweep_value']!r}/rep{b['rep']}")),
        (harness, "_classify_once", dict(name="harness.cell", cell=lambda b: f"rep{b['rep']}")),
        (harness, "run_high_dim", dict(name="em_engine.run_high_dim", counts=_em_loop)),
        (harness, "run_low_dim", dict(name="em_engine.run_low_dim", counts=_em_loop)),
        (harness, "nonprivate_em", dict(
            name="oracle.nonprivate_em",
            counts=lambda b, r: {"iterations": b["config"].N0, "n_used": len(b["batch"])})),
        (harness, "exact_top_k", dict(name="oracle.exact_top_k", bind=False)),
        # harness, em_engine and oracle all reach these through the package.
        (models, "generate", dict(
            name=lambda b: f"models.generate.{b['spec'].kind}",
            counts=lambda b, r: {"n": b["n"], "values": b["n"] * b["spec"].d})),
        (models, "truncated_grad", dict(name="models.truncated_grad", counts=_rows)),
        (models, "raw_grad", dict(name="models.raw_grad", counts=_rows)),
        (em_engine, "noisy_hard_threshold", dict(
            name="mechanisms.noisy_hard_threshold",
            counts=lambda b, r: {"draws": (b["s"] + 1) * int(np.size(b["v"])),
                                 "selected": b["s"]})),
        (mechanisms.NoiseOracle, "standard_normal", dict(
            name="mechanisms.noise_oracle", counts=_noise, bind=False)),
        (mechanisms.NoiseOracle, "uniform_centered", dict(
            name="mechanisms.noise_oracle", counts=_noise, bind=False)),
    ]
    missing = []
    for owner, attr, spec in targets:
        fn = getattr(owner, attr, None)
        if fn is None:
            missing.append(f"{owner.__name__}.{attr}")
            continue
        setattr(owner, attr, tracer.wrap(fn, **spec))
    return missing


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_cli.py SPANS.json -- <dpem CLI arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]

    start = time.perf_counter()
    import dpem.cli

    import_s = time.perf_counter() - start

    tracer = Tracer()
    missing = install(tracer)
    cpu0, wall0 = time.process_time(), time.perf_counter()
    code = tracer.wrap(dpem.cli.main, name="cli.main", bind=False)(cli_args)
    wall_s, cpu_s = time.perf_counter() - wall0, time.process_time() - cpu0

    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"code": code, "import_s": import_s, "main_s": wall_s, "cpu_s": cpu_s,
                   "missing": missing, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
