"""Per-layer tracing of discdyn from outside the package.

`Tracer.install` replaces functions of the discdyn modules with timing
wrappers, in every module namespace that binds them (a name imported with
`from .arcspace import act_arc` is bound in several modules, and each binding
is patched).  Nothing inside `src/` changes; `uninstall` restores every
binding.

Two kinds of wrapper:

- span targets (coarse calls such as `poisson.metric_norm` or `cli.main`)
  record one span per call: name, start, end, parent span and op id;
- every other public function of the traced modules is a hot leaf
  (`moebius.compose`, `arcspace.act_arc`, scalar
  `poisson.angle_antiderivative`, ...).  Hot calls only add to a
  (count, seconds) pair on the enclosing span, so a traced run keeps no span
  per call.

A target that no longer exists is recorded in `absent` and skipped, so the
tracer keeps working when a later version of the package deletes a name.
"""

from __future__ import annotations

import functools
import inspect
import time

import numpy as np

MODULES = ("moebius", "boundary", "poisson", "arcspace", "chaos", "foliation", "cli")

# One span per call.  Everything else public in MODULES is aggregated as a hot
# leaf, except the CLI subcommand handlers, whose own work (argument handling,
# CSV writing) is what `cli.self_s` measures.
SPAN_TARGETS = (
    "cli.main",
    "poisson.metric_norm",
    "poisson.metric_distance",
    "poisson.extend_many",
    "poisson.limit_diagnostic",
    "boundary.compose_with_moebius",
    "boundary.merge_partition",
    "boundary.from_line_segments",
    "chaos.translate_boundary",
    "chaos.build_dense_seed",
    "chaos.build_periodic_approximant",
    "chaos.build_parabolic_periodic",
    "chaos.dense_orbit_report",
    "chaos.conjugating_map",
    "chaos.TargetFamily.generate",
    "chaos.PeriodicApproximant.metric_defect",
    "chaos.PeriodicApproximant.l1_defect",
    "chaos.Conjugacy.transport",
    "chaos.Conjugacy.intertwine_residual",
    "foliation.genus2_group",
    "foliation.orbit_sample",
    "foliation.coverage_statistic",
    "foliation.coverage_sweep",
)

NOT_WRAPPED_PREFIXES = ("cmd_",)


def _points_and_pairs(args, kwargs, result):
    f, zs = args[0], args[1]
    points = int(np.size(zs))
    return {"points": points, "pairs": points * int(f.breakpoints.size)}


def _pieces(args, kwargs, result):
    return {"pieces": int(args[0].boundary.breakpoints.size)}


def _segments(args, kwargs, result):
    return {"segments": len(args[0])}


def _dense_rows(args, kwargs, result):
    return {"rows": len(result), "rows_ok": sum(1 for r in result if r.ok)}


def _m_materialized(args, kwargs, result):
    return {"m_materialized": int(result.m_materialized)}


def _exit_code(args, kwargs, result):
    return {"exit%d" % int(result): 1}


# Counters read from a call's arguments or result.  A hook that no longer
# fits the signature is counted in `hook_errors` instead of failing the op.
HOOKS = {
    "poisson.extend_many": _points_and_pairs,
    "poisson.metric_norm": _pieces,
    "boundary.from_line_segments": _segments,
    "chaos.dense_orbit_report": _dense_rows,
    "chaos.build_periodic_approximant": _m_materialized,
    "chaos.build_parabolic_periodic": _m_materialized,
    "cli.main": _exit_code,
}


class Frame:
    """One span; `covered` is the part of its duration spent in wrapped calls."""

    __slots__ = ("name", "parent", "op", "t0", "t1", "covered", "hot_depth", "hot", "attrs")

    def __init__(self, name, parent, op, t0):
        self.name = name
        self.parent = parent
        self.op = op
        self.t0 = t0
        self.t1 = None
        self.covered = 0.0
        self.hot_depth = 0
        self.hot = {}
        self.attrs = {}


class Tracer:
    def __init__(self):
        self.frames: list[Frame] = []
        self.stack: list[Frame] = []
        self.absent: list[str] = []
        self.wrapped: list[str] = []
        self.hook_errors = 0
        self._plan = None
        self._patches = []

    # --- installation -------------------------------------------------------

    def install(self, package) -> None:
        """Wrap span targets and public functions of `package`'s MODULES.

        The wrappers are built on the first call; later calls after
        `uninstall` put the same wrappers back.
        """
        if self._plan is None:
            self._plan = self._build_plan(package)
        for owner, attr, wrapper in self._plan:
            self._patch(owner, attr, wrapper)

    def _build_plan(self, package):
        plan = []
        namespaces = [package]
        mods = {}
        for m in MODULES:
            mod = getattr(package, m, None)
            if mod is None:
                self.absent.append(m)
                continue
            mods[m] = mod
            namespaces.append(mod)

        replacements = {}  # id(original) -> wrapper, for functions
        for target in SPAN_TARGETS:
            owner, attr, original = self._resolve(mods, target)
            if original is None:
                self.absent.append(target)
                continue
            if isinstance(original, classmethod):
                wrapper = classmethod(self._span_wrapper(target, original.__func__))
            else:
                wrapper = self._span_wrapper(target, original)
            if inspect.isclass(owner):
                plan.append((owner, attr, wrapper))
            else:
                replacements[id(original)] = (original, wrapper)
            self.wrapped.append(target)

        for m, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if (
                    name.startswith("_")
                    or name.startswith(NOT_WRAPPED_PREFIXES)
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or id(obj) in replacements
                ):
                    continue
                label = f"{m}.{name}"
                replacements[id(obj)] = (obj, self._hot_wrapper(label, obj))
                self.wrapped.append(label)

        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    plan.append((ns, name, hit[1]))
        return plan

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    @staticmethod
    def _resolve(mods, target):
        parts = target.split(".")
        owner = mods.get(parts[0])
        if owner is None:
            return None, None, None
        for part in parts[1:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None, None
        attr = parts[-1]
        original = inspect.getattr_static(owner, attr, None)
        if not (callable(original) or isinstance(original, classmethod)):
            return None, None, None
        return owner, attr, original

    # --- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        stack = self.stack
        frames = self.frames
        hook = HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = Frame(name, parent, parent.op, clock())
            frames.append(frame)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                frame.t1 = clock()
                if parent.hot_depth == 0:
                    parent.covered += frame.t1 - frame.t0
            if hook is not None:
                try:
                    frame.attrs = hook(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError, ValueError):
                    self.hook_errors += 1
            return result

        return span

    def _hot_wrapper(self, name, fn):
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def hot(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame = stack[-1]
            frame.hot_depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                frame.hot_depth -= 1
                if frame.hot_depth == 0:
                    frame.covered += dt
                agg = frame.hot.get(name)
                if agg is None:
                    frame.hot[name] = [1, dt]
                else:
                    agg[0] += 1
                    agg[1] += dt

        return hot

    # --- ops ----------------------------------------------------------------

    def begin_op(self, op_id) -> Frame:
        frame = Frame("bench.op", None, op_id, time.perf_counter())
        self.frames.append(frame)
        self.stack.append(frame)
        return frame

    def end_op(self, frame: Frame) -> None:
        frame.t1 = time.perf_counter()
        self.stack.remove(frame)

    # --- summaries ----------------------------------------------------------

    def totals(self) -> dict:
        """Per name: calls, inclusive seconds, self seconds, summed counters."""
        out: dict[str, dict] = {}

        def entry(name):
            e = out.get(name)
            if e is None:
                e = out[name] = {"calls": 0, "s": 0.0, "self_s": 0.0}
            return e

        for fr in self.frames:
            if fr.t1 is None:
                continue
            e = entry(fr.name)
            dur = fr.t1 - fr.t0
            e["calls"] += 1
            e["s"] += dur
            e["self_s"] += dur - fr.covered
            for k, v in fr.attrs.items():
                e[k] = e.get(k, 0) + v
            for name, (calls, secs) in fr.hot.items():
                h = entry(name)
                h["calls"] += calls
                h["s"] += secs
        return out

    def enclosing(self, frame: Frame, name: str):
        p = frame.parent
        while p is not None and p.name != name:
            p = p.parent
        return p

    def spans_json(self) -> list[dict]:
        index = {id(fr): i for i, fr in enumerate(self.frames)}
        return [
            {
                "id": i,
                "name": fr.name,
                "parent": index.get(id(fr.parent)),
                "op": fr.op,
                "t0": fr.t0,
                "t1": fr.t1,
                "self_s": None if fr.t1 is None else fr.t1 - fr.t0 - fr.covered,
                "hot": fr.hot,
                "attrs": fr.attrs,
            }
            for i, fr in enumerate(self.frames)
        ]
