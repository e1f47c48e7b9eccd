"""Span tracing of the vemrcp layers, installed from outside the program.

`Tracer.installed()` replaces the public functions that each vemrcp module
calls (for example `study.generate_mesh` or `recovery.cell_quadrature`) with
wrappers that time a span around the call, and puts every original back on
exit. Nothing under `src/` knows about it; an untraced run never installs it.

Spans nest on one stack: the program is single-threaded, so a span's children
run one after another inside it, and its self time is its duration minus the
summed durations of its direct children.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import time
from collections import defaultdict

# Spans of the entry points the benchmark calls. Their self time is glue
# outside every layer, so it does not count towards trace coverage.
ENTRY_SPANS = ("study.run_convergence_study", "cli.main")


class Tracer:
    """Aggregates span self time, call counts and work counters per name."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.counts: dict = defaultdict(int)
        self._stack: list = []          # child time of each open span
        self._patches: list = []        # (module, attribute, original)

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("cannot reset a tracer with open spans")
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        start = self.clock()
        self._stack.append(0.0)
        try:
            yield
        finally:
            duration = self.clock() - start
            children = self._stack.pop()
            self.self_s[name] += duration - children
            self.calls[name] += 1
            if self._stack:
                self._stack[-1] += duration

    def traced(self, name, fn, before=None, after=None):
        """Wrap fn in a span.

        `name` is a string or a callable (args, kwargs) -> str. The optional
        before(args, kwargs) -> state and after(result, args, kwargs, state)
        hooks update work counters outside the span.
        """
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            with self.span(name if isinstance(name, str) else name(args, kwargs)):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs, state)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------

    def _patch(self, module, attr: str, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def _wrap(self, module, attr: str, name, before=None, after=None) -> None:
        self._patch(module, attr, self.traced(name, getattr(module, attr), before, after))

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer boundaries of vemrcp for the duration of the block."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            self._install()
            yield self
        finally:
            for module, attr, original in reversed(self._patches):
                setattr(module, attr, original)
            self._patches.clear()

    def _install(self) -> None:
        from vemrcp import cli, recovery, study, vem

        counts = self.counts

        def count_mesh(mesh, args, kwargs, state):
            counts["mesh.cells"] += mesh.num_cells
            counts["mesh.dofs"] += 2 * mesh.num_vertices

        def count_patch(patch, args, kwargs, state):
            counts["mesh.patch_members"] += len(patch.member_cells)

        def quadrature_cached(args, kwargs):
            # The per-mesh cache is private to vemrcp; without it every call is a miss.
            mesh, cell = args[0], args[1]
            return cell in getattr(mesh, "_quadrature_cache", {})

        def count_hit(result, args, kwargs, hit):
            counts["quadrature.cell_quadrature.hits"] += int(hit)

        def count_free_nnz(constrained, args, kwargs, state):
            counts["vem.free_nnz"] += constrained.matrix.nnz

        def count_fallbacks(field, args, kwargs, state):
            counts["recovery.fallback_cells"] += len(field.fallback_cells)

        def count_bytes(result, args, kwargs, state):
            counts["cli.bytes_written"] += os.path.getsize(args[-1])

        def traced_case(fn):
            def manufactured_case(*args, **kwargs):
                case = fn(*args, **kwargs)
                return dataclasses.replace(
                    case,
                    **{
                        f: self.traced(f"cases.{f}", getattr(case, f))
                        for f in ("displacement", "strain", "stress", "body_force")
                    },
                )
            return manufactured_case

        def recovery_name(args, kwargs):
            kind = kwargs["kind"] if "kind" in kwargs else args[4]
            return f"recovery.recover_field.{kind}"

        self._wrap(cli, "main", "cli.main")
        for module in (study, cli):
            self._wrap(module, "run_convergence_study", "study.run_convergence_study")
        self._wrap(study, "generate_mesh", "generators.generate_mesh", after=count_mesh)
        self._wrap(study, "run_level", "study.run_level")
        self._wrap(study, "solve_dirichlet_problem", "vem.solve_dirichlet_problem")
        self._wrap(vem, "assemble_global", "vem.assemble_global")
        self._wrap(vem, "apply_dirichlet", "vem.apply_dirichlet", after=count_free_nnz)
        self._wrap(vem, "solve_system", "vem.solve_system")
        self._wrap(study, "element_stresses", "vem.element_stresses")
        self._wrap(study, "recover_field", recovery_name, after=count_fallbacks)
        self._wrap(recovery, "build_patch", "mesh.build_patch", after=count_patch)
        for module in (study, recovery):
            self._wrap(module, "cell_quadrature", "quadrature.cell_quadrature",
                       before=quadrature_cached, after=count_hit)
        self._wrap(study, "energy_error_norm", "study.energy_error_norm")
        for module in (study, cli):
            self._wrap(module, "evaluate_recovered_stress", "recovery.evaluate_recovered_stress")
            self._patch(module, "manufactured_case", traced_case(module.manufactured_case))
        for writer in ("write_csv", "write_dat", "write_vtk"):
            self._wrap(cli, writer, f"cli.{writer}", after=count_bytes)

    # -- per-layer metrics ------------------------------------------------

    def layer_metrics(self, pass_s: float) -> dict:
        """Per-layer metrics of one traced pass that took `pass_s` seconds."""
        out = {}
        for name, unit in PER_LAYER:
            if name in DERIVED:
                continue
            if name.endswith(".self_s"):
                out[name] = self.self_s.get(name[: -len(".self_s")], 0.0)
            elif name.endswith(".calls"):
                out[name] = self.calls.get(name[: -len(".calls")], 0)
            else:
                out[name] = self.counts.get(name, 0)
        calls = self.calls.get("quadrature.cell_quadrature", 0)
        hits = self.counts.get("quadrature.cell_quadrature.hits", 0)
        out["quadrature.cell_quadrature.hit_ratio"] = hits / calls if calls else 0.0
        layer_self = sum(s for name, s in self.self_s.items() if name not in ENTRY_SPANS)
        out["trace.coverage"] = layer_self / pass_s
        return out


# (name, unit) of every per-layer metric, in report order. Names are
# <module>.<function>.<quantity>; self_s is span time minus child spans.
PER_LAYER = (
    ("generators.generate_mesh.self_s", "s"),
    ("generators.generate_mesh.calls", "count"),
    ("mesh.cells", "count"),
    ("mesh.dofs", "count"),
    ("mesh.build_patch.self_s", "s"),
    ("mesh.build_patch.calls", "count"),
    ("mesh.patch_members", "count"),
    ("vem.solve_dirichlet_problem.self_s", "s"),
    ("vem.assemble_global.self_s", "s"),
    ("vem.apply_dirichlet.self_s", "s"),
    ("vem.solve_system.self_s", "s"),
    ("vem.free_nnz", "count"),
    ("vem.element_stresses.self_s", "s"),
    ("quadrature.cell_quadrature.calls", "count"),
    ("quadrature.cell_quadrature.self_s", "s"),
    ("quadrature.cell_quadrature.hit_ratio", "ratio"),
    ("cases.stress.calls", "count"),
    ("cases.stress.self_s", "s"),
    ("cases.body_force.calls", "count"),
    ("cases.body_force.self_s", "s"),
    ("recovery.recover_field.rcp0.self_s", "s"),
    ("recovery.recover_field.rcp1.self_s", "s"),
    ("recovery.fallback_cells", "count"),
    ("recovery.evaluate_recovered_stress.calls", "count"),
    ("recovery.evaluate_recovered_stress.self_s", "s"),
    ("study.energy_error_norm.self_s", "s"),
    ("study.energy_error_norm.calls", "count"),
    ("study.run_level.self_s", "s"),
    ("cli.write_vtk.self_s", "s"),
    ("cli.write_csv.self_s", "s"),
    ("cli.write_dat.self_s", "s"),
    ("cli.bytes_written", "B"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"),
)
# Metrics computed from other quantities rather than read from one span.
DERIVED = frozenset({
    "quadrature.cell_quadrature.hit_ratio", "trace.coverage", "trace.overhead_s",
})
