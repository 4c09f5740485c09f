"""Span tracing of the pivotal library from outside its source tree.

``Tracer.install`` replaces the public functions and methods of every
``pivotal`` module with timing wrappers and ``uninstall`` puts the
originals back; nothing under ``src/`` is edited. A name bound by value in
another namespace (``theorems`` imports ``pivotal_set`` from ``analysis``,
``boolfn`` imports ``mixture_D`` from ``generators``, the package
re-exports almost everything) is found by identity and patched there too.

Two kinds of boundary are recorded:

* spans, one per call, with name, start, end, parent span and job id.
  A call into a layer from inside the same layer (``count_pivotal``
  calling ``pivotal_report``) stays in the outer span;
* hot per-element boundaries (``evaluate``, points yielded by ``items``,
  ``sample``), whose count and time are added to the layer totals and to
  the enclosing span's child time instead of emitting a span each.

A layer's ``self_s`` is its spans' wall time minus the time of their child
spans and hot boundaries. Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

# (module, qualified attribute, layer). A method is "Class.name"; a class
# attribute that is missing in this version of the library is skipped.
SPANS = [
    ("dist", "ExplicitDist.__init__", "dist.construct"),
    ("dist", "ProductDist.__init__", "dist.construct"),
    ("dist", "mixture", "dist.construct"),
    ("dist", "Distribution.check_kwise", "dist.check_kwise"),
    ("dist", "ProductDist.check_kwise", "dist.check_kwise"),
    ("dist", "Distribution.marginal", "dist.query"),
    ("dist", "ProductDist.marginal", "dist.query"),
    ("dist", "Distribution.expectation", "dist.query"),
    ("dist", "ExplicitDist.single_marginal", "dist.query"),
    ("dist", "ProductDist.single_marginal", "dist.query"),
    ("dist", "ExplicitDist.condition", "dist.query"),
    ("dist", "ProductDist.condition", "dist.query"),
    ("dist", "ExplicitDist.weight", "dist.query"),
    ("dist", "ProductDist.weight", "dist.query"),
    ("dist", "ExplicitDist.to_explicit", "dist.query"),
    ("dist", "ProductDist.to_explicit", "dist.query"),
    ("generators", "hadamard_mu", "generators"),
    ("generators", "complement_mu", "generators"),
    ("generators", "mixture_D", "generators"),
    ("generators", "majp_dist", "generators"),
    ("generators", "uniform_product", "generators"),
    ("boolfn", "DenseTable.__init__", "boolfn.construct"),
    ("boolfn", "PartialTable.__init__", "boolfn.construct"),
    ("boolfn", "ParityFn.__init__", "boolfn.construct"),
    ("boolfn", "MajorityFn.__init__", "boolfn.construct"),
    ("boolfn", "DictatorFn.__init__", "boolfn.construct"),
    ("boolfn", "ConstantFn.__init__", "boolfn.construct"),
    ("boolfn", "MajPFn.__init__", "boolfn.construct"),
    ("boolfn", "UpwardClosure.__init__", "boolfn.closure"),
    ("boolfn", "UpwardClosure.from_masks", "boolfn.closure"),
    ("boolfn", "monotone_check", "boolfn.certificate"),
    ("boolfn", "monotone_extend", "boolfn.certificate"),
    ("boolfn", "effect_counterexample", "boolfn.certificate"),
    ("boolfn", "influence_counterexample", "boolfn.certificate"),
    ("analysis", "signed_effect", "analysis.report"),
    ("analysis", "effect", "analysis.report"),
    ("analysis", "effect_report", "analysis.report"),
    ("analysis", "influence", "analysis.report"),
    ("analysis", "pivotal_report", "analysis.report"),
    ("analysis", "pivotal_player", "analysis.report"),
    ("analysis", "count_effect", "analysis.report"),
    ("analysis", "count_pivotal", "analysis.report"),
    ("analysis", "pivotal_set", "analysis.pivotal_set"),
    ("analysis", "fourier", "analysis.fourier"),
    ("analysis", "effect_identity", "analysis.fourier"),
    ("analysis", "estimate_effect", "analysis.estimate"),
    ("analysis", "estimate_expectation", "analysis.estimate"),
    ("theorems", "verify_thm1", "theorems.verify"),
    ("theorems", "verify_warmup", "theorems.verify"),
    ("theorems", "verify_sum_bound", "theorems.verify"),
    ("theorems", "verify_binary_bound", "theorems.verify"),
    ("theorems", "verify_reduction", "theorems.verify"),
    ("theorems", "verify_elimination", "theorems.verify"),
    ("theorems", "convex_decomposition_check", "theorems.verify"),
    ("theorems", "reduce_to_binary", "theorems.reduce"),
    ("theorems", "elimination_set", "theorems.elimination"),
    ("theorems", "estimate_majp_deviations", "theorems.tightness"),
    ("theorems", "majp_tightness", "theorems.tightness"),
    ("serialize", "load_dist", "serialize.load"),
    ("serialize", "load_fn", "serialize.load"),
    ("serialize", "dist_from_obj", "serialize.load"),
    ("serialize", "fn_from_obj", "serialize.load"),
    ("serialize", "save_dist", "serialize.save"),
    ("serialize", "save_fn", "serialize.save"),
    ("serialize", "dist_to_obj", "serialize.save"),
    ("serialize", "fn_to_obj", "serialize.save"),
    ("serialize", "canonical_dumps", "serialize.save"),
    ("serialize", "jsonable", "serialize.save"),
    ("cli", "main", "cli.main"),
]

# Per-element boundaries: count and time only, no span per call.
HOT = [
    ("dist", "ExplicitDist.sample", "dist.sample"),
    ("dist", "ProductDist.sample", "dist.sample"),
]
HOT_ITER = [
    ("dist", "ExplicitDist.items", "dist.items"),
    ("dist", "ProductDist.items", "dist.items"),
]
EVALUATE = ("evaluate", "evaluate_mask")


def _after_file(tracer, args, result):
    # load_* and save_* take the path first; count the bytes read or written.
    tracer.totals["serialize.bytes"] += os.path.getsize(args[0])


def _after_closure(tracer, args, result):
    # __init__(self, n, generators) returns None; from_masks returns the object.
    obj = args[0] if result is None else result
    tracer.totals["boolfn.closure.generators_out"] += len(obj.generators)


def _before_closure(tracer, args):
    masks = args[-1]
    if not hasattr(masks, "__len__"):
        masks = list(masks)
        args = args[:-1] + (masks,)
    tracer.totals["boolfn.closure.masks_in"] += len(masks)
    return args


def _after_pivotal_set(tracer, args, result):
    if tracer.parent_name() == "theorems.elimination":
        tracer.totals["theorems.elimination.subsets"] += 1
        tracer.totals["theorems.elimination.pivotal"] += bool(result)


def _after_to_explicit(tracer, args, result):
    if result is not args[0]:
        tracer.totals["dist.to_explicit.points"] += len(result.support)


HOOKS = {
    "load_dist": (None, _after_file),
    "load_fn": (None, _after_file),
    "save_dist": (None, _after_file),
    "save_fn": (None, _after_file),
    "UpwardClosure.__init__": (_before_closure, _after_closure),
    "UpwardClosure.from_masks": (_before_closure, _after_closure),
    "pivotal_set": (None, _after_pivotal_set),
    "ProductDist.to_explicit": (None, _after_to_explicit),
}


class Tracer:
    """Wraps the library in place while a traced job runs."""

    def __init__(self):
        self.job: int | None = None
        self.totals: defaultdict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, name, parent id, start, child time]
        self._in_hot = False
        self._patches = self._discover()

    # -- recording -----------------------------------------------------

    def parent_name(self) -> str | None:
        """Name of the span enclosing the current one."""
        return self._stack[-2][1] if len(self._stack) > 1 else None

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([len(self.spans) + len(self._stack), name, parent,
                            perf_counter(), 0.0])

    def exit(self) -> None:
        sid, name, parent, start, child = self._stack.pop()
        end = perf_counter()
        self.totals[name + ".calls"] += 1
        self.totals[name + ".self_s"] += end - start - child
        if self._stack:
            self._stack[-1][4] += end - start
        self.spans.append((sid, name, start, end, parent, self.job))

    def _span(self, name, fn, hooks):
        before, after = hooks
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if tracer._in_hot or (stack and stack[-1][1] == name):
                return fn(*args, **kwargs)
            tracer.enter(name)
            try:
                if before is not None:
                    args = before(tracer, args)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(tracer, args, result)
                return result
            finally:
                tracer.exit()
        return wrapper

    def _hot(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._in_hot:
                return fn(*args, **kwargs)
            tracer._in_hot = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer._in_hot = False
                tracer.totals[name + ".calls"] += 1
                tracer.totals[name + ".self_s"] += dt
                if tracer._stack:
                    tracer._stack[-1][4] += dt
        return wrapper

    def _hot_iter(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            owner = tracer._stack[-1] if tracer._stack else None
            tracer.totals[name + ".calls"] += 1
            tracer.totals[f"{name}.calls_in.{owner[1] if owner else 'job'}"] += 1
            return tracer._timed_iter(name, fn(*args, **kwargs), owner)
        return wrapper

    def _timed_iter(self, name, it, owner):
        points = 0
        spent = 0.0
        try:
            while True:
                t0 = perf_counter()
                try:
                    x = next(it)
                except StopIteration:
                    return
                finally:
                    spent += perf_counter() - t0
                points += 1
                yield x
        finally:
            self.totals[name + ".points"] += points
            self.totals[name + ".self_s"] += spent
            if owner is not None:
                owner[4] += spent

    # -- patching ------------------------------------------------------

    def _discover(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every traced boundary."""
        patches = []

        def function(module, name, wrapper_for):
            original = getattr(sys.modules["pivotal." + module], name)
            wrapper = wrapper_for(original)
            for modname, mod in list(sys.modules.items()):
                if modname == "pivotal" or modname.startswith("pivotal."):
                    patches.extend((mod, attr, original, wrapper)
                                   for attr, value in vars(mod).items() if value is original)

        def method(module, qualname, wrapper_for):
            cls_name, attr = qualname.split(".")
            cls = getattr(sys.modules["pivotal." + module], cls_name)
            raw = cls.__dict__.get(attr)
            if raw is None:
                return
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(wrapper_for(raw.__func__))
            else:
                wrapped = wrapper_for(raw)
            patches.append((cls, attr, raw, wrapped))

        def patch(module, qualname, wrapper_for):
            (method if "." in qualname else function)(module, qualname, wrapper_for)

        for module, qualname, layer in SPANS:
            hooks = HOOKS.get(qualname, (None, None))
            patch(module, qualname,
                  lambda fn, layer=layer, hooks=hooks: self._span(layer, fn, hooks))
        for module, qualname, layer in HOT:
            patch(module, qualname, lambda fn, layer=layer: self._hot(layer, fn))
        for module, qualname, layer in HOT_ITER:
            patch(module, qualname, lambda fn, layer=layer: self._hot_iter(layer, fn))
        boolfn = sys.modules["pivotal.boolfn"]
        for cls in vars(boolfn).values():
            if isinstance(cls, type) and issubclass(cls, boolfn.PlayerFunction):
                for attr in EVALUATE:
                    if attr in cls.__dict__:
                        method("boolfn", f"{cls.__name__}.{attr}",
                               lambda fn: self._hot("boolfn.evaluate", fn))
        return patches

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- jobs and output -----------------------------------------------

    def run_job(self, job_id: int, fn):
        """Run one job under the patches, as a root span named ``job``.

        The library is patched only while the job runs, so output checks
        and untraced jobs see the original functions.
        """
        self.job = job_id
        self.install()
        self.enter("job")
        try:
            return fn()
        finally:
            self.exit()
            self.uninstall()
            self.job = None

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
