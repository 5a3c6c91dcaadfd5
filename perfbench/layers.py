"""Per-layer timing from outside the program, for traced runs.

:class:`LayerTimer` wraps public functions and methods of the ``repro``
package with timing shims and counts their calls.  Functions are replaced in
every loaded ``repro`` module that bound the same object (``from x import
f`` copies), methods on their class.  Nothing inside ``src/`` changes.

A shim records only while :attr:`LayerTimer.active` is true, so a traced run
can alternate traced and untraced rounds through the same process and report
the tracing overhead as the ratio of their wall times.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple


class LayerTimer:
    def __init__(self) -> None:
        self.active = False
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._undo: List[Tuple[object, str, object]] = []

    def _shim(self, name: str, fn: Callable) -> Callable:
        timer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if not timer.active:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                timer.seconds[name] += time.perf_counter() - start
                timer.calls[name] += 1

        return shim

    def wrap_function(self, module_name: str, attr: str, name: str, *,
                      only_here: bool = False) -> None:
        """Time ``module_name.attr`` wherever a ``repro`` module bound it.

        ``only_here`` limits the shim to ``module_name`` itself, for a
        function several layers import but only one should be charged with.
        """
        original = getattr(sys.modules[module_name], attr)
        shim = self._shim(name, original)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            if only_here and mod_name != module_name:
                continue
            if getattr(module, attr, None) is original:
                self._undo.append((module, attr, original))
                setattr(module, attr, shim)

    def wrap_method(self, cls: type, attr: str, name: str) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self._shim(name, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install_solver_layers(timer: LayerTimer) -> None:
    """Wrap the solver-side layers every in-process workload goes through."""
    import repro.analysis.lint  # noqa: F401 - make sure the modules are loaded
    import repro.core.scheduler  # noqa: F401
    import repro.core.schedule  # noqa: F401
    import repro.core.simulator  # noqa: F401
    import repro.solvers.ilp  # noqa: F401
    import repro.solvers.lp_relaxation  # noqa: F401
    from repro.solvers.compiled import CompiledFormulation

    timer.wrap_function("repro.analysis.lint", "lint_graph_cached", "lint")
    timer.wrap_method(CompiledFormulation, "__init__", "compiled.build")
    timer.wrap_method(CompiledFormulation, "with_budget", "compiled.rebudget")
    timer.wrap_method(CompiledFormulation, "decode_matrices", "compiled.decode")
    # The HiGHS MILP call itself, as bound inside solvers.ilp.
    timer.wrap_function("repro.solvers.ilp", "milp", "ilp", only_here=True)
    timer.wrap_function("repro.solvers.lp_relaxation", "solve_lp_relaxation", "lp")
    timer.wrap_function("repro.core.simulator", "schedule_peak_memory", "simulator")
    timer.wrap_function("repro.core.schedule", "validate_correctness_constraints",
                        "validate")
    timer.wrap_function("repro.core.scheduler", "generate_execution_plan", "plan")


def formulation_sizes(graphs) -> Tuple[int, int]:
    """Variables and constraint nonzeros of each graph's compiled MILP, summed."""
    from repro.solvers.compiled import get_formulation_cache

    variables = nnz = 0
    for graph in graphs:
        stats = get_formulation_cache().get(graph).stats
        variables += int(stats["variables"])
        nnz += int(stats["nnz"])
    return variables, nnz
