"""Per-layer spans for the traced benchmark run, installed from outside.

`Tracer.install()` replaces each listed precint function with a wrapper in
every `precint.*` namespace that holds it, because `from .ore import
apply_element_all` binds the function under a local name in each importing
module and a wrapper in one place would miss those calls.  `uninstall()`
puts every original back; untraced runs never see a wrapper.

Each wrapper keeps calls, self time and total time.  Self time is the span's
duration minus the time of wrapped calls made inside it.  A target that no
longer exists is skipped and named in `missing`; the runner then fails, so a
renamed layer shows as an error rather than as a layer that costs nothing.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

# metric prefix, module, attribute path inside the module
TIMED: Tuple[Tuple[str, str, str], ...] = (
    ("exprs.parse_operator", "precint.exprs", "parse_operator"),
    ("cli.main", "precint.cli", "main"),
    ("fields.factor", "precint.fields", "factor"),
    ("fields.galois_trace_sum", "precint.fields", "galois_trace_sum"),
    ("valuation.OrbitAnalysis.analyze", "precint.valuation", "OrbitAnalysis.analyze"),
    ("valuation.val_at", "precint.valuation", "val_at"),
    ("ore.apply_element_all", "precint.ore", "apply_element_all"),
    ("integral.local_integral_basis", "precint.integral", "local_integral_basis"),
    ("integral.ShiftSpace.find_alpha", "precint.integral", "ShiftSpace.find_alpha"),
    ("integral.ShiftSpace.discriminant", "precint.integral", "ShiftSpace.discriminant"),
    ("linalg.determinant", "precint._linalg", "determinant"),
    ("linalg.solve_with_free_zero", "precint._linalg", "solve_with_free_zero"),
    ("verify.certificate", "precint.verify", "certificate"),
    ("verify.module_equal_at", "precint.verify", "module_equal_at"),
)
COUNTED: Tuple[Tuple[str, str, str], ...] = (
    ("fields.poly_gcd", "precint.fields", "poly_gcd"),
)
EXTRA = (
    "fields.poly_gcd.calls",
    "ore.apply_element_all.unique",
    "ore.apply_element_all.unique_ratio",
    "ore.table.extent",
    "ore.table.max_q_degree",
    "integral.updates.combine",
    "integral.updates.normalize",
    "verify.certificate.samples",
)


def _precint_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "precint" or name.startswith("precint."))]


class Tracer:
    def __init__(self):
        self.missing: List[str] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._stack: List[float] = []
        self.stats: Dict[str, List[float]] = {p: [0, 0.0, 0.0] for p, _, _ in TIMED}
        self.counts: Counter = Counter()
        self.unique_evals = set()
        self.tables: Dict[int, object] = {}

    def _reset(self) -> None:
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        self.counts.clear()
        self.unique_evals.clear()
        self.tables.clear()

    # -- wrappers -------------------------------------------------------------

    def _timed(self, prefix: str, fn: Callable,
               after: Optional[Callable] = None) -> Callable:
        stat = self.stats[prefix]
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                inner = stack.pop()
                stat[0] += 1
                stat[1] += dt - inner
                stat[2] += dt
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def _counted(self, prefix: str, fn: Callable) -> Callable:
        counts = self.counts
        key = prefix + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks reading what a call produced ----------------------------------

    def _after_apply(self, result, element, basis, n, *rest, **kw):
        self.unique_evals.add((basis, element, n))

    def _after_analyze(self, result, *args, **kwargs):
        self.tables[id(result.basis)] = result.basis

    def _after_local(self, result, space, basis, point, *rest, **kw):
        for rec in result.provenance[len(basis.provenance):]:
            self.counts[f"integral.updates.{rec.kind}"] += 1

    def _after_certificate(self, result, *args, **kwargs):
        self.counts["verify.certificate.samples"] += result.samples

    # -- installation ---------------------------------------------------------

    def install(self) -> "Tracer":
        self.missing = []
        after = {
            "ore.apply_element_all": self._after_apply,
            "valuation.OrbitAnalysis.analyze": self._after_analyze,
            "integral.local_integral_basis": self._after_local,
            "verify.certificate": self._after_certificate,
        }
        for prefix, module, path in TIMED:
            self._patch(prefix, module, path,
                        lambda fn, p=prefix: self._timed(p, fn, after.get(p)))
        for prefix, module, path in COUNTED:
            self._patch(prefix, module, path,
                        lambda fn, p=prefix: self._counted(p, fn))
        return self

    def _patch(self, prefix: str, module: str, path: str, make) -> None:
        mod = sys.modules.get(module)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        if owner is None or attr not in vars(owner):
            self.missing.append(prefix)
            return
        original = vars(owner)[attr]
        if isinstance(original, staticmethod):
            self._set(owner, attr, staticmethod(make(original.__func__)))
            return
        wrapper = make(original)
        if owner_name:
            self._set(owner, attr, wrapper)
            return
        for namespace in _precint_modules():
            for name, value in list(vars(namespace).items()):
                if value is original:
                    self._set(namespace, name, wrapper)

    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- one round's figures ---------------------------------------------------

    def take_round(self) -> Dict[str, float]:
        """The figures gathered since the last call, then a fresh start."""
        out: Dict[str, float] = {}
        for prefix, (calls, self_s, total_s) in self.stats.items():
            out[f"{prefix}.calls"] = calls
            out[f"{prefix}.self_s"] = self_s
            out[f"{prefix}.total_s"] = total_s
        for name in EXTRA:
            out[name] = self.counts.get(name, 0)
        calls = out["ore.apply_element_all.calls"]
        out["ore.apply_element_all.unique"] = len(self.unique_evals)
        out["ore.apply_element_all.unique_ratio"] = (
            len(self.unique_evals) / calls if calls else 0.0)
        tables = list(self.tables.values())
        out["ore.table.extent"] = sum(len(getattr(t, "_values", ())) for t in tables)
        out["ore.table.max_q_degree"] = max(
            (getattr(t, "max_degree", 0) for t in tables), default=0)
        self._reset()
        return out
