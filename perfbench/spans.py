"""Span tracing from outside the fputw package.

``Tracer.install`` replaces fputw's public entry points (and scipy's
``splu``) with wrappers that record one span per call: name, start, end,
parent span and operation id.  Functions imported by name into other modules
(``solve_newton`` in ``diatomic`` and ``monatomic``, ``solve_wave`` in
``continuation``, ...) are rebound there too, because patching only the
defining module would record nothing for those callers.  Spans stay in memory
until the run ends; ``layer_metrics`` reduces them to per-operation layer
numbers.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    parent: int
    op: int
    start: float = 0.0
    end: float = 0.0
    failed: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _TracedLU:
    """SuperLU stand-in whose ``solve`` is traced (SuperLU takes no new
    attributes)."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, after=None, attrs=None):
        """Return ``fn`` wrapped to record a span called ``name``.
        ``after(span, args, kwargs, result)`` fills attributes from the call;
        after a raise it sees ``span.failed`` set and ``result`` None."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sp = Span(name, stack[-1] if stack else -1, self.op,
                      attrs=dict(attrs) if attrs else {})
            stack.append(len(spans))
            spans.append(sp)
            sp.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                sp.end = perf_counter()
                stack.pop()
                sp.failed = True
                # NonConvergenceError carries the iterations spent
                sp.attrs["iters"] = getattr(exc, "iterations", 0)
                if after is not None:
                    after(sp, args, kwargs, None)
                raise
            sp.end = perf_counter()
            stack.pop()
            if after is not None:
                after(sp, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Patch the entry points listed in ``_targets`` and rebind every
        by-name import of them inside the fputw package."""
        wrappers = {}
        for owner, attr, name, after, impl in _targets(self):
            original = vars(owner)[attr]
            wrapped = self.wrap(name, impl or original, after)
            wrappers[id(original)] = (original, wrapped)
            self._patch(owner, attr, wrapped)
        for modname, mod in list(sys.modules.items()):
            if modname != "fputw" and not modname.startswith("fputw."):
                continue
            for key, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, key, hit[1])

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def records(self) -> list[dict]:
        return [{"id": i, "name": sp.name, "parent": sp.parent, "op": sp.op,
                 "start": sp.start, "end": sp.end, "failed": sp.failed, **sp.attrs}
                for i, sp in enumerate(self.spans)]


# ---------------------------------------------------------------------------
# what is wrapped
# ---------------------------------------------------------------------------

def _targets(tracer: Tracer):
    """(owner, attribute, span name, after hook, implementation or None)."""
    import scipy.sparse.linalg as spla

    from fputw import (checkpoint, cli, continuation, diatomic, lattice, mfde,
                       monatomic, solution)

    def newton_after(sp, args, kwargs, result):
        sp.attrs["n"] = mfde.Layout(args[0]).size
        if result is not None:
            sp.attrs["iters"] = result[2].iterations

    splu = spla.splu

    def factor(*args, **kwargs):
        lu = splu(*args, **kwargs)
        return _TracedLU(lu, tracer.wrap("mfde.trisolve", lu.solve,
                                         attrs={"n": lu.shape[0]}))

    def factor_after(sp, args, kwargs, result):
        if sp.failed:
            return
        sp.attrs["n"] = result.shape[0]
        sp.attrs["nnz"] = int(result.nnz)

    def eval_after(sp, args, kwargs, result):
        if sp.failed:
            return
        tau = args[1] if len(args) > 1 else kwargs["tau"]
        sp.attrs["points"] = int(getattr(tau, "size", 1))

    kc_sig = inspect.signature(monatomic.amplitude_coefficient)

    def kc_after(sp, args, kwargs, result):
        if sp.failed:
            return
        call = kc_sig.bind(*args, **kwargs)
        call.apply_defaults()
        # three midpoint sums over n, n and 2n nodes
        sp.attrs["points"] = 4 * call.arguments["n_quad"]

    def branch_after(sp, args, kwargs, result):
        if sp.failed:
            return
        sp.attrs["points"] = len(result.points)

    run_sig = inspect.signature(lattice.run_simulation)

    def run_after(sp, args, kwargs, result):
        if sp.failed:
            return
        call = run_sig.bind(*args, **kwargs)
        call.apply_defaults()
        cfg = call.arguments["cfg"] or lattice.SimConfig()
        per_sample = max(1, int(round(cfg.sample_stride / cfg.dt)))
        sp.attrs["steps"] = (len(result.times) - 1) * per_sample
        sp.attrs["sites"] = call.arguments["state"].n

    def write_after(sp, args, kwargs, result):
        if sp.failed:
            return
        sp.attrs["bytes"] = os.path.getsize(args[1])

    return [
        (cli, "main", "cli.main", None, None),
        (cli, "write_csv", "cli.write_csv", None, None),
        (cli, "write_manifest", "cli.write_manifest", None, None),
        (checkpoint, "write", "checkpoint.write", write_after, None),
        (checkpoint, "read", "checkpoint.read", None, None),
        (mfde, "solve_newton", "mfde.solve_newton", newton_after, None),
        (spla, "splu", "mfde.factor", factor_after, factor),
        (solution.PiecewiseSolution, "eval", "solution.eval", eval_after, None),
        (monatomic, "solve_profile", "monatomic.solve_profile", None, None),
        (monatomic, "solve_jost", "monatomic.solve_jost", None, None),
        (monatomic, "amplitude_coefficient", "monatomic.amplitude_coefficient", kc_after, None),
        (monatomic, "kappa_scan", "monatomic.kappa_scan", None, None),
        (diatomic, "solve_wave", "diatomic.solve_wave", None, None),
        (diatomic, "seed_from_monatomic", "diatomic.seed_from_monatomic", None, None),
        (continuation, "continue_branch", "continuation.continue_branch", branch_after, None),
        (continuation, "bisect_alpha_zero", "continuation.bisect_alpha_zero", None, None),
        (continuation, "find_solitary", "continuation.find_solitary", None, None),
        (lattice, "run_simulation", "lattice.run_simulation", run_after, None),
        (lattice, "sample_initial_condition", "lattice.sample_initial_condition", None, None),
        (lattice, "recenter_and_window", "lattice.recenter_and_window", None, None),
        (lattice, "energy", "lattice.energy", None, None),
        (lattice, "core_window", "lattice.core_window", None, None),
        (lattice.DiagnosticSeries, "update", "lattice.update", None, None),
    ]


# ---------------------------------------------------------------------------
# reduction to per-layer metrics
# ---------------------------------------------------------------------------

MFDE_FIELDS = ("newton_calls", "newton_failed", "newton_iters", "newton_s",
               "factor_calls", "factor_s", "lu_fill_nnz", "trisolve_s",
               "assemble_s")

# (name, unit, better); "mfde.<field>.<size>" names are added per size tag
LAYER_METRICS = (
    ("mfde.self_s", "s", "lower"),
    ("solution.eval_calls", "count", "lower"),
    ("solution.eval_points", "count", "lower"),
    ("solution.eval_s", "s", "lower"),
    ("solution.self_s", "s", "lower"),
    ("monatomic.profile_calls", "count", "lower"),
    ("monatomic.profile_s", "s", "lower"),
    ("monatomic.jost_s", "s", "lower"),
    ("monatomic.kc_s", "s", "lower"),
    ("monatomic.kc_points", "count", "lower"),
    ("monatomic.self_s", "s", "lower"),
    ("diatomic.wave_solves", "count", "lower"),
    ("diatomic.wave_solve_s", "s", "lower"),
    ("diatomic.wave_solve_p50_s", "s", "lower"),
    ("diatomic.newton_per_wave", "count", "lower"),
    ("diatomic.self_s", "s", "lower"),
    ("continuation.points", "count", "lower"),
    ("continuation.solves", "count", "lower"),
    ("continuation.solves_failed", "count", "lower"),
    ("continuation.accept_ratio", "ratio", "higher"),
    ("continuation.failed_solve_s", "s", "lower"),
    ("continuation.bisect_solves", "count", "lower"),
    ("continuation.bisect_s", "s", "lower"),
    ("continuation.self_s", "s", "lower"),
    ("lattice.run_s", "s", "lower"),
    ("lattice.steps", "count", "lower"),
    ("lattice.step_us", "us", "lower"),
    ("lattice.site_steps_per_s", "1/s", "higher"),
    ("lattice.diag_s", "s", "lower"),
    ("lattice.recenter_s", "s", "lower"),
    ("lattice.sample_s", "s", "lower"),
    ("lattice.self_s", "s", "lower"),
    ("checkpoint.writes", "count", "lower"),
    ("checkpoint.write_s", "s", "lower"),
    ("checkpoint.bytes_written", "B", "lower"),
    ("checkpoint.read_s", "s", "lower"),
    ("checkpoint.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.csv_write_s", "s", "lower"),
)


def per_layer_metrics(sizes):
    """(name, unit, better) of every per-layer metric a traced run reports."""
    mfde = [(f"mfde.{f}.n{n}", "s" if f.endswith("_s") else "count", "lower")
            for n in sizes for f in MFDE_FIELDS]
    return mfde + list(LAYER_METRICS) + [("proc.import_s", "s", "lower"),
                                         ("proc.cpu_s", "s", "lower"),
                                         ("trace.overhead_ratio", "ratio", "lower")]


def self_times(spans):
    """Each span's duration minus the part its direct children cover."""
    covered = [0.0] * len(spans)
    for sp in spans:
        if sp.parent >= 0:
            covered[sp.parent] += sp.duration
    return [sp.duration - c for sp, c in zip(spans, covered)]


def layer_metrics(spans, sizes):
    """Per-layer numbers of one traced operation.  mfde metrics exist for
    each size in ``sizes`` and for any other size met; ``lu_fill_nnz`` is
    the largest factorization's."""
    selfs = self_times(spans)
    tot = dict.fromkeys((name for name, _, _ in per_layer_metrics(sizes)), 0.0)
    fill = {}
    wave_times = []
    wave_newton_iters = 0
    integrate_s = site_steps = 0.0
    for sp, own in zip(spans, selfs):
        d = sp.duration
        name, a = sp.name, sp.attrs
        _add(tot, name.split(".", 1)[0] + ".self_s", own)
        parent = spans[sp.parent].name if sp.parent >= 0 else ""
        if name in ("mfde.solve_newton", "mfde.factor", "mfde.trisolve"):
            tag = f"n{a['n']}"
            if name == "mfde.solve_newton":
                _add(tot, f"mfde.newton_calls.{tag}", 1)
                _add(tot, f"mfde.newton_failed.{tag}", int(sp.failed))
                _add(tot, f"mfde.newton_iters.{tag}", a.get("iters", 0))
                _add(tot, f"mfde.newton_s.{tag}", d)
                if parent == "diatomic.solve_wave":
                    wave_newton_iters += a.get("iters", 0)
            elif name == "mfde.factor":
                _add(tot, f"mfde.factor_calls.{tag}", 1)
                _add(tot, f"mfde.factor_s.{tag}", d)
                if not sp.failed:
                    fill[tag] = max(fill.get(tag, 0), a["nnz"])
            else:
                _add(tot, f"mfde.trisolve_s.{tag}", d)
        elif name == "solution.eval":
            _add(tot, "solution.eval_calls", 1)
            _add(tot, "solution.eval_points", a.get("points", 0))
            _add(tot, "solution.eval_s", d)
        elif name == "monatomic.solve_profile":
            _add(tot, "monatomic.profile_calls", 1)
            _add(tot, "monatomic.profile_s", d)
        elif name == "monatomic.solve_jost":
            _add(tot, "monatomic.jost_s", d)
        elif name == "monatomic.amplitude_coefficient":
            _add(tot, "monatomic.kc_s", d)
            _add(tot, "monatomic.kc_points", a.get("points", 0))
        elif name == "diatomic.solve_wave":
            _add(tot, "diatomic.wave_solves", 1)
            _add(tot, "diatomic.wave_solve_s", d)
            wave_times.append(d)
            if parent.startswith("continuation."):
                _add(tot, "continuation.solves", 1)
                if sp.failed:
                    _add(tot, "continuation.solves_failed", 1)
                    _add(tot, "continuation.failed_solve_s", d)
                if parent == "continuation.bisect_alpha_zero":
                    _add(tot, "continuation.bisect_solves", 1)
        elif name == "continuation.continue_branch":
            _add(tot, "continuation.points", a.get("points", 0))
        elif name == "continuation.bisect_alpha_zero":
            _add(tot, "continuation.bisect_s", d)
        elif name == "lattice.run_simulation":
            _add(tot, "lattice.run_s", d)
            _add(tot, "lattice.steps", a.get("steps", 0))
            integrate_s += own
            site_steps += a.get("steps", 0) * a.get("sites", 0)
        elif name in ("lattice.update", "lattice.energy", "lattice.core_window"):
            _add(tot, "lattice.diag_s", own)
        elif name == "lattice.recenter_and_window":
            _add(tot, "lattice.recenter_s", d)
        elif name == "lattice.sample_initial_condition":
            _add(tot, "lattice.sample_s", d)
        elif name == "checkpoint.write":
            _add(tot, "checkpoint.writes", 1)
            _add(tot, "checkpoint.write_s", d)
            _add(tot, "checkpoint.bytes_written", a.get("bytes", 0))
        elif name == "checkpoint.read":
            _add(tot, "checkpoint.read_s", d)
        elif name == "cli.write_csv":
            _add(tot, "cli.csv_write_s", d)
    out = dict(tot)
    for n in sizes:
        tag = f"n{n}"
        out[f"mfde.assemble_s.{tag}"] = (out[f"mfde.newton_s.{tag}"] - out[f"mfde.factor_s.{tag}"]
                                          - out[f"mfde.trisolve_s.{tag}"])
        out[f"mfde.lu_fill_nnz.{tag}"] = float(fill.get(tag, 0))
    solves = tot["continuation.solves"]
    out["continuation.accept_ratio"] = (solves - tot["continuation.solves_failed"]) / solves if solves else 0.0
    out["diatomic.wave_solve_p50_s"] = statistics.median(wave_times) if wave_times else 0.0
    out["diatomic.newton_per_wave"] = wave_newton_iters / len(wave_times) if wave_times else 0.0
    out["lattice.step_us"] = 1e6 * integrate_s / tot["lattice.steps"] if tot["lattice.steps"] else 0.0
    out["lattice.site_steps_per_s"] = site_steps / integrate_s if integrate_s else 0.0
    return out


def _add(tot, key, value):
    tot[key] = tot.get(key, 0.0) + value
