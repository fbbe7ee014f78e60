"""Spans around the calls into each mindisc module, recorded from outside it.

:meth:`Tracer.installed` replaces every module attribute that names one of
the traced functions (``mindisc.solver.certify``, ``mindisc.povm.
spectral_decompose``, ``mindisc.cli.load_problem``, ...) with a wrapper, so
each call is seen under the name its caller looked up, and restores the
originals on exit.  ``DensityMatrix`` and ``Ensemble`` validation is traced
through their ``__post_init__``.  Wrappers record only inside
:meth:`Tracer.recording`, so the benchmark's own checks leave no spans.

Spans stay in memory; :func:`layer_metrics` turns the spans of one pass
into the per-layer metrics and :meth:`Tracer.write` saves them at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from pathlib import Path
from typing import NamedTuple

LAYERS = {
    "ensembles": ("random_mixed", "pure_pair", "trine", "pure_state", "generate",
                  "validate_density"),
    "povm": ("validate_povm", "uniform_povm", "square_root_measurement", "random_povm"),
    "matrices": ("spectral_decompose", "min_eigenvalue"),
    "certificates": ("certify", "lagrange_operator", "witness_operator",
                     "hermiticity_residual", "pairwise_equality_residual",
                     "zero_product_residual"),
    "solver": ("solve", "helstrom_binary", "brute_force", "find_negative_mode",
               "perturb", "gain", "best_epsilon"),
    "cli": ("main", "load_problem", "problem_to_json", "dumps_canonical"),
}
VALIDATED_CLASSES = {"ensembles": ("DensityMatrix", "Ensemble")}
EMIT = ("cli.problem_to_json", "cli.dumps_canonical")


class Span(NamedTuple):
    # a tuple of plain values, so the garbage collector stops tracking it
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span
    op: int | str | None
    attrs: tuple = ()

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def attr(self, key: str, default=0):
        return dict(self.attrs).get(key, default)


def _before(name: str, args) -> tuple:
    if name == "cli.load_problem":
        return (("bytes", os.path.getsize(args[0])),)
    return ()


def _after(name: str, result) -> tuple:
    if name in EMIT:
        return (("bytes", len(result.encode("utf-8"))),)
    if name == "solver.solve":
        cert = result.final_certificate
        return (
            ("steps", result.iterations_used),
            ("returned_steps", len(result.iterations)),
            ("gap_bound", result.final_povm.dim * max(0.0, -min(cert.witness_min_eigenvalues))),
            ("herm_residual", cert.lagrange_herm_residual),
        )
    return ()


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.op: int | str | None = None
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            before = _before(name, args)
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.op, before)
            self.spans[index] = self.spans[index]._replace(attrs=before + _after(name, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every lookup of a traced function; restore all on exit."""
        import mindisc

        modules = [mindisc] + [importlib.import_module(f"mindisc.{m}") for m in LAYERS]
        wrappers = {}
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"mindisc.{layer}")
            for fname in names:
                fn = getattr(module, fname, None)
                if callable(fn):
                    wrappers[fn] = self._wrap(f"{layer}.{fname}", fn)
        restore = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    restore.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        for layer, classes in VALIDATED_CLASSES.items():
            module = importlib.import_module(f"mindisc.{layer}")
            for cname in classes:
                cls = getattr(module, cname)
                original = cls.__dict__["__post_init__"]
                restore.append((cls, "__post_init__", original))
                cls.__post_init__ = self._wrap(f"{layer}.{cname}", original)
        try:
            yield self
        finally:
            for owner, attr, value in reversed(restore):
                setattr(owner, attr, value)

    @contextlib.contextmanager
    def recording(self, op: int | str):
        """Record the spans of operation ``op``."""
        self.active, self.op = True, op
        try:
            yield
        finally:
            self.active, self.op = False, None

    def write(self, path: Path, t0: float) -> None:
        """One JSON line per span; times in seconds from ``t0``."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps({
                    "name": span.name,
                    "start": span.start - t0,
                    "end": span.end - t0,
                    "parent": span.parent,
                    "op": span.op,
                    **dict(span.attrs),
                }) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], pass_ids: range, setup_ids: range) -> dict:
    """Per-layer metrics of one traced pass.

    ``pass_ids`` index the pass's spans in ``spans`` and ``setup_ids`` those
    of one traced set-up.  The ensembles and povm metrics cover both, every
    other metric the pass alone.
    """
    both = [*setup_ids, *pass_ids]
    child_time: dict[int, float] = {}
    for i in both:
        parent = spans[i].parent
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + spans[i].duration

    def named(ids, *names):
        return [i for i in ids if spans[i].name in names]

    def in_layer(ids, layer):
        return [i for i in ids if spans[i].layer == layer]

    def self_time(ids):
        return sum(spans[i].duration - child_time.get(i, 0.0) for i in ids)

    def entries(ids, layer):
        # calls into the layer from outside it
        return [i for i in in_layer(ids, layer)
                if spans[i].parent is None or spans[spans[i].parent].layer != layer]

    solves = named(pass_ids, "solver.solve")
    steps = sum(spans[i].attr("steps") for i in solves)
    returned = sum(spans[i].attr("returned_steps") for i in solves)
    solver_self = self_time(in_layer(pass_ids, "solver"))
    certificates_self = self_time(in_layer(pass_ids, "certificates"))
    certificates_calls = len(entries(pass_ids, "certificates"))
    loads = named(pass_ids, "cli.load_problem")
    emits = [i for i in named(pass_ids, *EMIT)
             if spans[i].parent is None or spans[spans[i].parent].name not in EMIT]
    load_s = sum(spans[i].duration for i in loads)
    emit_s = sum(spans[i].duration for i in emits)
    bytes_read = sum(spans[i].attr("bytes") for i in loads)
    bytes_written = sum(spans[i].attr("bytes") for i in emits)
    solve_set = set(solves)
    return {
        "solver.steps": steps,
        "solver.attempts": sum(1 for i in named(pass_ids, "certificates.certify")
                               if spans[i].parent in solve_set),
        "solver.wasted_step_frac": 1.0 - _ratio(returned, steps) if steps else 0.0,
        "solver.self_s": solver_self,
        "solver.us_per_step": 1e6 * _ratio(solver_self, steps),
        "certificates.calls": certificates_calls,
        "certificates.self_s": certificates_self,
        "certificates.ms_per_call": 1e3 * _ratio(certificates_self, certificates_calls),
        "certificates.gap_bound_max": max(
            (spans[i].attr("gap_bound", 0.0) for i in solves), default=0.0),
        "certificates.herm_residual_max": max(
            (spans[i].attr("herm_residual", 0.0) for i in solves), default=0.0),
        "povm.constructions": len(entries(both, "povm")),
        "povm.self_s": self_time(in_layer(both, "povm")),
        "matrices.spectral_calls": len(entries(pass_ids, "matrices")),
        "matrices.spectral_s": self_time(in_layer(pass_ids, "matrices")),
        "ensembles.builds": len(entries(both, "ensembles")),
        "ensembles.self_s": self_time(in_layer(both, "ensembles")),
        "cli.load_s": load_s,
        "cli.emit_s": emit_s,
        "cli.bytes_read": bytes_read,
        "cli.bytes_written": bytes_written,
        "cli.load_mb_per_s": _ratio(bytes_read / 1e6, load_s),
        "cli.emit_mb_per_s": _ratio(bytes_written / 1e6, emit_s),
    }
