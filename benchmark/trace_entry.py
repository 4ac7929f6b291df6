"""Run one `missingdigits` CLI job in this process, optionally traced.

    python3 benchmark/trace_entry.py OUT.json JOB_ID {0|1} -- ARGV...

With tracing on, the public functions of each layer are wrapped (the
name is rebound in every package module that imported it), each call
becomes a span (name, start, end, parent, thread) kept in memory, and
every `EvalBudget.charge` is added, by label, to the innermost open
span.  Spans opened on `ThreadPoolExecutor` workers find their parent
because the executor is replaced by one that runs each task in a copy of
the submitting thread's context.  At exit the spans, the counters and
the in-process time of `cli.main` go to OUT.json.  With tracing off only
that time is written, which is the untraced side of the overhead ratio.

The package must be importable (the benchmark puts `src` on PYTHONPATH).
"""

from __future__ import annotations

import concurrent.futures
import contextvars
import functools
import hashlib
import itertools
import json
import sys
import threading
import time

import numpy as np

# (module, function, span name); spans are named after the layer.
SPANNED = (
    ("fourier", "digit_symbol", "fourier.digit_symbol"),
    ("fourier", "fourier_transform_batch", "fourier.transform_batch"),
    ("dimension", "f_theta", "dimension.f_theta"),
    ("dimension", "sup_f", "dimension.sup_f"),
    ("dimension", "grid_lower_bound", "dimension.grid_lower_bound"),
    ("dimension", "best_lower_bound", "dimension.best_lower_bound"),
    ("certify", "certify_radial_Lp", "certify.certify_radial_Lp"),
    ("certify", "certify_linear", "certify.certify_linear"),
    ("certify", "preset", "certify.preset"),
    ("projection", "linear_density", "projection.linear_density"),
    ("projection", "linear_density_mc", "projection.linear_density_mc"),
    ("projection", "radial_density_mc", "projection.radial_density_mc"),
    ("projection", "radial_tube_profile", "projection.radial_tube_profile"),
    ("projection", "stripe_scan", "projection.stripe_scan"),
    ("projection", "exceptional_directions", "projection.exceptional_directions"),
    ("projection", "lp_criterion_integral", "projection.lp_criterion_integral"),
    ("projection", "slab_integral", "projection.slab_integral"),
    ("cylinders", "cylinder_mass", "cylinders.cylinder_mass"),
    ("measure", "sample", "measure.sample"),
    ("graham", "enumerate_restricted", "graham.enumerate_restricted"),
    ("graham", "enumerate_scaled", "graham.enumerate_scaled"),
)


class Span:
    __slots__ = ("name", "parent", "thread", "start", "end", "cells", "extra")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.cells = {}
        self.extra = {}


class Recorder:
    """In-memory span and counter store for one job process."""

    def __init__(self):
        self.spans = []
        self.current = contextvars.ContextVar("span", default=None)
        self.lock = threading.Lock()
        self.charges = itertools.count()
        self.digits_ok_calls = itertools.count()
        self.spent_ratio_max = 0.0
        self.seen_thetas = set()

    def span(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.current.get())
            token = self.current.set(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self.current.reset(token)
                with self.lock:
                    self.spans.append(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result
        return traced

    def wrap_charge(self, charge):
        @functools.wraps(charge)
        def traced_charge(budget, cells, what="evaluation"):
            charge(budget, cells, what)
            next(self.charges)
            span = self.current.get()
            with self.lock:
                if span is not None:
                    span.cells[what] = span.cells.get(what, 0) + int(cells)
                self.spent_ratio_max = max(self.spent_ratio_max, budget.spent / budget.limit)
        return traced_charge

    def count_digits_ok(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            next(self.digits_ok_calls)
            return fn(*args, **kwargs)
        return counted

    # -- per-function extras, recorded after the call returns --

    @staticmethod
    def _symbol_points(span, args, kwargs, result):
        span.extra["points"] = int(result.size)

    @staticmethod
    def _batch_points(span, args, kwargs, result):
        span.extra["points"] = int(result[0].shape[0])

    def _theta_repeat(self, span, args, kwargs, result):
        factor, thetas = args[0], np.asarray(args[1] if len(args) > 1 else kwargs["thetas"],
                                             dtype=np.float64)
        key = (str(factor), thetas.shape, hashlib.sha1(thetas.tobytes()).hexdigest())
        with self.lock:
            span.extra["repeat"] = key in self.seen_thetas
            self.seen_thetas.add(key)

    @staticmethod
    def _members(span, args, kwargs, result):
        span.extra["members"] = len(result)

    def install(self, modules: dict):
        """Rebind every traced name in every package module."""
        after = {
            "fourier.digit_symbol": self._symbol_points,
            "fourier.transform_batch": self._batch_points,
            "dimension.f_theta": self._theta_repeat,
            "graham.enumerate_restricted": self._members,
            "graham.enumerate_scaled": self._members,
        }
        replace = {}
        for mod, fname, name in SPANNED:
            fn = getattr(modules[mod], fname)
            replace[fn] = self.span(name, fn, after.get(name))
        digits_ok = modules["graham"].digits_ok
        replace[digits_ok] = self.count_digits_ok(digits_ok)
        replace[concurrent.futures.ThreadPoolExecutor] = ContextExecutor
        for module in [m for k, m in sys.modules.items()
                       if k == "missingdigits" or k.startswith("missingdigits.")]:
            for attr, value in list(vars(module).items()):
                try:
                    new = replace.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if new is not None:
                    setattr(module, attr, new)
        budget_cls = modules["budget"].EvalBudget
        budget_cls.charge = self.wrap_charge(budget_cls.charge)

    def dump(self) -> dict:
        index = {id(s): i for i, s in enumerate(self.spans)}
        threads = {}
        spans = [[s.name, s.start, s.end, index.get(id(s.parent), -1),
                  threads.setdefault(s.thread, len(threads)), s.cells, s.extra]
                 for s in self.spans]
        return {"spans": spans,
                "counters": {"budget.charge.calls": next(self.charges),
                             "graham.digits_ok.calls": next(self.digits_ok_calls),
                             "budget.spent_ratio_max": self.spent_ratio_max}}


class ContextExecutor(concurrent.futures.ThreadPoolExecutor):
    """ThreadPoolExecutor whose tasks see the submitter's open span."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def main(argv: list) -> int:
    out_path, job_id, traced = argv[0], argv[1], argv[2] == "1"
    if argv[3] != "--":
        raise SystemExit("usage: trace_entry.py OUT.json JOB_ID {0|1} -- ARGV...")
    cli_argv = argv[4:]
    from missingdigits import (budget, certify, cli, cylinders, dimension, fourier,
                               graham, measure, projection)
    recorder = None
    main_fn = cli.main
    if traced:
        recorder = Recorder()
        recorder.install({"budget": budget, "certify": certify, "cylinders": cylinders,
                          "dimension": dimension, "fourier": fourier, "graham": graham,
                          "measure": measure, "projection": projection})
        main_fn = recorder.span("cli.main", cli.main)
    t0 = time.perf_counter()
    try:
        code = main_fn(cli_argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    inproc = time.perf_counter() - t0
    sys.stdout.flush()
    record = {"job": job_id, "inproc_s": inproc}
    if recorder is not None:
        record.update(recorder.dump())
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
