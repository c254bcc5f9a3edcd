"""Span tracing of pfstrip's public functions, installed from outside the package.

Each traced function is replaced, in every pfstrip module that holds a
reference to it, by a wrapper that records a span (name, start, end, parent)
in memory.  Nothing in ``src/pfstrip`` knows about the tracer, and
``Patches.restore`` puts every original back.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# (module, attribute, span name).  "Class.method" attributes are patched on the class.
TRACED = (
    ("potentials", "evaluate", "potentials.evaluate"),
    ("potentials", "latent_eval", "potentials.latent_eval"),
    ("grid_ops", "build_grid", "grid_ops.build_grid"),
    ("grid_ops", "assemble_masses", "grid_ops.assemble_masses"),
    ("grid_ops", "assemble_stiffness", "grid_ops.assemble_stiffness"),
    ("grid_ops", "StiffnessOp.apply", "grid_ops.stiffness_apply"),
    ("functionals", "energy", "functionals.energy"),
    ("functionals", "entropy", "functionals.entropy"),
    ("functionals", "mass_mu", "functionals.mass_mu"),
    ("functionals", "dm_mean", "functionals.dm_mean"),
    ("functionals", "dm_std", "functionals.dm_std"),
    ("functionals", "dissipation_increment", "functionals.dissipation_increment"),
    ("timestepper", "step_chi", "timestepper.step_chi"),
    ("timestepper", "step_theta", "timestepper.step_theta"),
    ("timestepper", "run", "timestepper.run"),
    ("stationary", "solve_stationary", "stationary.solve_stationary"),
    ("stationary", "solve_chi_given_u", "stationary.solve_chi_given_u"),
    ("stationary", "mass_gap", "stationary.mass_gap"),
    ("io_cli", "parse_config", "io_cli.parse_config"),
    ("io_cli", "validate_config", "io_cli.validate_config"),
    ("io_cli", "build_model", "io_cli.build_model"),
    ("io_cli", "write_snapshot", "io_cli.write_snapshot"),
    ("io_cli", "write_pgm", "io_cli.write_pgm"),
    ("io_cli", "write_diagnostics", "io_cli.write_diagnostics"),
)
ASSEMBLY = ("grid_ops.build_grid", "grid_ops.assemble_masses", "grid_ops.assemble_stiffness")
LAYERS = ("potentials", "grid_ops", "functionals", "timestepper", "stationary", "io_cli")


class Patches:
    """Replace a function in every pfstrip module that references it; undo on restore."""

    def __init__(self):
        self._saved = []

    def replace(self, module: str, attr: str, make):
        """Swap `module.attr` for make(original) wherever pfstrip refers to it."""
        mod = sys.modules["pfstrip." + module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            self._saved.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        original = getattr(mod, attr)
        new = make(original)
        for name, other in list(sys.modules.items()):
            if name == "pfstrip" or name.startswith("pfstrip."):
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._saved.append((other, key, original))
                        setattr(other, key, new)

    def restore(self):
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()


class Tracer:
    """In-memory spans; counters for CG matvecs and bytes written."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []      # [name index, start, end, parent index]
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def wrapper(self, name: str, fn, after=None):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([nid, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(args, kwargs)
            return result

        return traced

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def install(self, patches: Patches) -> None:
        afters = {
            "io_cli.write_snapshot": lambda a, k: self.count(
                "io_cli.write_snapshot.bytes", os.path.getsize(a[2])),
            "io_cli.write_pgm": lambda a, k: self.count(
                "io_cli.write_pgm.bytes", os.path.getsize(a[2])
                + os.path.getsize(os.path.splitext(a[2])[0] + ".range.txt")),
            "io_cli.write_diagnostics": lambda a, k: self.count(
                "io_cli.write_diagnostics.bytes", os.path.getsize(a[1])),
        }
        for module, attr, name in TRACED:
            patches.replace(module, attr, lambda fn, name=name: self.wrapper(
                name, fn, afters.get(name)))
        patches.replace("grid_ops", "solve_spd", self._counting_solve)

    def _counting_solve(self, solve):
        """Span around solve_spd, counting every call of the operator it is given."""
        def counted_solve(apply, *args, **kwargs):
            def counted_apply(z):
                self.count("matvecs", 1)
                return apply(z)
            return solve(counted_apply, *args, **kwargs)
        return self.wrapper("grid_ops.solve_spd", functools.wraps(solve)(counted_solve))

    def summary(self, window: tuple[float, float]) -> dict:
        """Per-name calls / self / inclusive seconds, and per-layer self time in `window`."""
        n = len(self.spans)
        child = [0.0] * n
        for nid, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        by_name = {name: {"calls": 0, "self_s": 0.0, "incl_s": 0.0} for name in self.names}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        lo, hi = window
        for i, (nid, start, end, parent) in enumerate(self.spans):
            name = self.names[nid]
            entry = by_name[name]
            self_s = (end - start) - child[i]
            entry["calls"] += 1
            entry["self_s"] += self_s
            entry["incl_s"] += end - start
            if lo <= start <= hi:
                layer_self[name.split(".")[0]] += self_s
        return {"names": by_name, "layer_self_s": layer_self}

    def children_of(self, parent_name: str, child_name: str) -> int:
        """Number of `child_name` spans whose nearest traced ancestor is `parent_name`."""
        pid, cid = self.names.index(parent_name), self.names.index(child_name)
        return sum(1 for nid, _, _, parent in self.spans
                   if nid == cid and parent >= 0 and self.spans[parent][0] == pid)

    def dump(self, path: str) -> None:
        """Write every span as [name, start, end, parent index] JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))
