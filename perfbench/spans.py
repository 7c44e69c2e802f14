"""Per-layer spans for the traced run, recorded from the benchmark's side.

`Tracer.install` wraps the public functions of each hardyops layer (plus
`_project_samples`, which every caller of P_I goes through) in every
hardyops module namespace that bound them, and the FFT and boundary
sampling methods on their classes.  `uninstall` puts the originals back.
Untraced runs never call `install`, so they run the program unwrapped.

A span records its name, start, end and parent; the self time of a span
is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
import time

#: (module, attribute) -> span name for plain functions.
FUNCTION_SPANS = {
    ("hardyops.operators", "symbol_recover"): "operators.symbol_recover",
    ("hardyops.operators", "commutant_basis"): "operators.commutant_basis",
    ("hardyops.operators", "commutation_singular_values"): "operators.commutation_singular_values",
    ("hardyops.operators", "compressed_matrix"): "operators.compressed_matrix",
    ("hardyops.operators", "toeplitz_apply"): "operators.toeplitz_apply",
    ("hardyops.operators", "adjoint_defect"): "operators.adjoint_defect",
    ("hardyops.model_space", "_project_samples"): "model_space.project",
    ("hardyops.model_space", "expand"): "model_space.expand",
    ("hardyops.model_space", "tm_basis"): "model_space.tm_basis",
    ("hardyops.corona", "corona_delta"): "corona.corona_delta",
    ("hardyops.corona", "bezout_solve"): "corona.bezout_solve",
    ("hardyops.corona", "near_degenerate_probe"): "corona.near_degenerate_probe",
    ("hardyops.cli", "parse_config"): "cli.parse_config",
    ("hardyops.cli", "run_report"): "cli.run",
    ("hardyops.cli", "run_sweep"): "cli.run",
    ("hardyops.cli", "canonical_json"): "cli.emit",
    ("hardyops.cli", "_csv"): "cli.emit",
    ("hardyops.cli", "_emit"): "cli.emit",
}

#: (module, class, attribute) -> span name for methods; `samples` is a
#: cached property, the rest are plain or class methods.
METHOD_SPANS = {
    ("hardyops.hardy", "BoundaryFunction", "from_samples"): "hardy.fft",
    ("hardyops.hardy", "BoundaryFunction", "samples"): "hardy.fft",
    ("hardyops.blaschke", "BlaschkeProduct", "boundary"): "blaschke.boundary",
    ("hardyops.blaschke", "RationalFunction", "boundary"): "blaschke.boundary",
}

GRID_SPAN = "hardy.fft"


class Tracer:
    """Spans of the items run while installed, kept in memory.

    `spans` holds (item, name, start, end, parent) with parent the index of
    the enclosing span or -1; `per_item` aggregates them per item into
    {name: [calls, self_s]} plus the largest grid size seen by the FFT
    layer under "hardy.grid_m".
    """

    def __init__(self):
        self.spans = []
        self.per_item = []
        self.missing = []
        self._stack = []
        self._restore = []
        self._item = -1

    # -- recording ---------------------------------------------------------

    def begin_item(self) -> None:
        self._item += 1
        self.per_item.append({"hardy.grid_m": 0})

    def _wrap(self, name, fn, grid_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append([index, 0.0])
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, child_s = self._stack.pop()
                parent = self._stack[-1][0] if self._stack else -1
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans[index] = (self._item, name, start, end, parent)
                agg = self.per_item[self._item].setdefault(name, [0, 0.0])
                agg[0] += 1
                agg[1] += end - start - child_s
                if grid_of is not None:
                    stats = self.per_item[self._item]
                    stats["hardy.grid_m"] = max(stats["hardy.grid_m"], grid_of(args))
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "hardyops"]
        for (mod_name, attr), name in FUNCTION_SPANS.items():
            original = getattr(sys.modules[mod_name], attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapped = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._restore.append((module, key, original))
        for (mod_name, cls_name, attr), name in METHOD_SPANS.items():
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__.get(attr)
            if original is None:
                self.missing.append(f"{mod_name}.{cls_name}.{attr}")
                continue
            grid_of = _grid_m if name == GRID_SPAN else None
            if isinstance(original, functools.cached_property):
                wrapped = functools.cached_property(self._wrap(name, original.func, grid_of))
                wrapped.__set_name__(cls, attr)
            elif isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__, grid_of))
            else:
                wrapped = self._wrap(name, original, grid_of)
            setattr(cls, attr, wrapped)
            self._restore.append((cls, attr, original))
        if self.missing:
            print(f"perfbench: not traced, absent: {', '.join(self.missing)}", file=sys.stderr)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()


def _grid_m(args) -> int:
    """Grid size of `from_samples(cls, grid, ...)` or `self.samples`."""
    return args[1].m if isinstance(args[0], type) else args[0].grid.m
