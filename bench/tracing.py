"""Timing shims installed around matpencil's layer entry points.

The shims live in the benchmark, not in the package: `Tracer.install`
replaces each traced function at every place it is bound (its defining
module, each `from ... import` copy in another matpencil module, or the
class attribute for methods) and `uninstall` puts the originals back.

Time is attributed through a span stack.  A span's self time is its
duration minus the time of the spans it encloses, so nested layers are
not counted twice: `smith_form` encloses `pm_det`, which encloses
`det`, and `minimal_basis` calls itself for the left side.
"""

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter


def _rref_cells(args, result):
    rows, cols = args[0].shape
    return rows * cols


def _trials(args, result):
    return len(result)


# (layer, module, attribute) of each traced entry point; methods are
# named Class.method.
SHIMS = (
    ("cli.main", "matpencil.cli", "main"),
    ("cli.load", "matpencil.matpoly", "MatPoly.from_json_dict"),
    ("cli.load", "matpencil.spaces", "AnsatzPencil.from_json_dict"),
    ("cli.load", "matpencil.reduction", "TrimResult.from_json_dict"),
    ("cli.dump", "matpencil.matpoly", "dump_json"),
    ("spaces.build", "matpencil.spaces", "build_l1"),
    ("spaces.build", "matpencil.spaces", "build_l2"),
    ("spaces.build", "matpencil.spaces", "companion_g1"),
    ("spaces.build", "matpencil.spaces", "companion_g2"),
    ("spaces.membership", "matpencil.spaces", "ansatz_membership"),
    ("reduction.trim", "matpencil.reduction", "trim"),
    ("reduction.z_rank", "matpencil.reduction", "z_rank"),
    ("reduction.z_rank", "matpencil.reduction", "full_z_rank"),
    ("eigenstructure.check", "matpencil.eigenstructure",
     "check_g_linearization"),
    ("eigenstructure.check", "matpencil.eigenstructure",
     "check_linearization"),
    ("eigenstructure.solve", "matpencil.eigenstructure",
     "complete_eigenstructure"),
    ("eigenstructure.smith", "matpencil.eigenstructure", "smith_form"),
    ("eigenstructure.factor", "sympy", "factor_list"),
    ("qpoly.pm_det", "matpencil.qpoly", "pm_det"),
    ("exactla.det", "matpencil.exactla", "det"),
    ("exactla.rref", "matpencil.exactla", "rref"),
    ("matpoly.matmul", "matpencil.matpoly", "MatPoly.matmul"),
    ("matpoly.normal_rank", "matpencil.matpoly", "MatPoly.normal_rank"),
    ("minimal.minimal_basis", "matpencil.minimal", "minimal_basis"),
    ("minimal.recover", "matpencil.minimal", "recover_minimal"),
    ("backward.experiment", "matpencil.backward", "run_experiment"),
    ("backward.dual_completion", "matpencil.backward", "dual_completion"),
    ("numpy.svd", "numpy.linalg", "svd"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in SHIMS))
# layers whose call counts are reported
COUNTED = ("eigenstructure.smith", "qpoly.pm_det", "matpoly.matmul",
           "exactla.rref", "minimal.minimal_basis", "matpoly.normal_rank",
           "numpy.svd")
# layers that also report a work amount per call, read from the
# arguments and the result: (metric, hook)
AMOUNTS = {"exactla.rref": ("exactla.rref_cells", _rref_cells),
           "backward.experiment": ("backward.trials", _trials)}


def _metrics():
    out = []
    for layer in LAYERS:
        out.append((layer + "_s", "s"))
        if layer in COUNTED:
            out.append((layer + "_calls", "count"))
        if layer in AMOUNTS:
            out.append((AMOUNTS[layer][0], "count"))
    return tuple(out)


# (name, unit) of every metric `Tracer.take` returns, in report order
METRICS = _metrics()


class Tracer:
    """Self time, call count and work amount per layer, summed over the
    calls made while installed, until `take` resets them."""

    def __init__(self):
        self.values = defaultdict(float)
        self._stack = []
        self._saved = []

    def _wrap(self, layer, fn):
        stack, values = self._stack, self.values
        calls_key = layer + "_calls" if layer in COUNTED else None
        amount_key, amount = AMOUNTS.get(layer, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                values[layer + "_s"] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                if calls_key:
                    values[calls_key] += 1
            if amount:
                values[amount_key] += amount(args, result)
            return result
        return traced

    def install(self):
        for layer, modname, attr in SHIMS:
            owner = importlib.import_module(modname)
            if "." in attr:
                clsname, attr = attr.split(".")
                owner = getattr(owner, clsname)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(layer, raw.__func__))
                else:
                    new = self._wrap(layer, raw)
                self._patch(owner, attr, raw, new)
                continue
            orig = getattr(owner, attr)
            new = self._wrap(layer, orig)
            self._patch(owner, attr, orig, new)
            for name, mod in list(sys.modules.items()):
                if (name.startswith("matpencil.") and mod is not owner
                        and getattr(mod, attr, None) is orig):
                    self._patch(mod, attr, orig, new)

    def _patch(self, owner, attr, orig, new):
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def take(self):
        """Value of each of METRICS since the last take."""
        out = {name: self.values[name] for name, _ in METRICS}
        self.values.clear()
        return out
