"""Run-time spans around ncalg's public functions, for the traced run only.

`Tracer.enable` replaces each listed function or method with a wrapper that
records a span (name, start, end, parent, op id) and `disable` puts the
original back.  A module-level function is replaced in every ncalg module
that bound it, e.g. `ncalg.solvers.row_reduce` from `from .linalg import
row_reduce`.  `Element.__mul__` only counts calls: a span per scalar-sized
multiply would cost more than the multiply.  Spans stay in memory until the
benchmark writes them out at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

# (module, attribute path, span name)
SPANNED = [
    ("ncalg.cli", "run", "cli.run"),
    ("ncalg.parser", "parse_equation", "parser.parse"),
    ("ncalg.parser", "parse_expression", "parser.parse"),
    ("ncalg.parser", "normalize_linear", "parser.normalize"),
    ("ncalg.parser", "normalize_poly", "parser.normalize"),
    ("ncalg.parser", "format_element", "parser.format_element"),
    ("ncalg.algebra", "Algebra.__init__", "algebra.build"),
    ("ncalg.algebra", "Algebra.pair_products", "algebra.pair_products"),
    ("ncalg.algebra", "Element.inverse", "algebra.inverse"),
    ("ncalg.tensor", "TensorOp.operator_matrix", "tensor.operator_matrix"),
    ("ncalg.tensor", "TensorOp.invert", "tensor.invert"),
    ("ncalg.tensor", "TensorOp.compose", "tensor.compose"),
    ("ncalg.tensor", "TensorOp.apply", "tensor.apply"),
    ("ncalg.linalg", "row_reduce", "linalg.row_reduce"),
    ("ncalg.solvers", "solve_field", "solvers.solve_field"),
    ("ncalg.solvers", "solve_richardson", "solvers.solve_richardson"),
    ("ncalg.solvers", "build_richardson", "solvers.build_richardson"),
    ("ncalg.solvers", "nc_row_reduce", "solvers.nc_row_reduce"),
    ("ncalg.solvers", "SylvesterSystem.residuals", "solvers.verify"),
    ("ncalg.solvers", "SylvesterSystem.apply_ops", "solvers.verify"),
    ("ncalg.newton", "newton_solve", "newton.newton_solve"),
    ("ncalg.newton", "GeneralizedPolynomial.evaluate", "newton.evaluate"),
    ("ncalg.newton", "GeneralizedPolynomial.derivative_at", "newton.derivative_at"),
]
COUNTED = [("ncalg.algebra", "Element.__mul__", "algebra.mul")]

HARNESS = "harness.op"


def _bits(value):
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    return 0


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start_ns, end_ns, parent, op_id, error]
        self.stack = []
        self.op_id = None
        self.counts = Counter()
        self.maxima = Counter()
        self._patches = None

    # -- recording ------------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op_id, None])
        self.stack.append(idx)
        return idx

    def _close(self, idx, error=None):
        self.spans[idx][2] = time.perf_counter_ns()
        self.spans[idx][5] = error
        self.stack.pop()

    def op(self, op_id, call):
        """Run one benchmark op as a root span and return its result."""
        self.op_id = op_id
        idx = self._open(HARNESS)
        try:
            return call()
        finally:
            self._close(idx)

    def _observe(self, name, args, result):
        if name == "linalg.row_reduce":
            matrix = args[0]
            self.counts["linalg.row_reduce.cells"] += matrix.rows * matrix.cols
            values = list(result.particular or []) + [
                v for vec in result.nullspace_basis for v in vec]
            self.maxima["linalg.denominator_bits_max"] = max(
                [self.maxima["linalg.denominator_bits_max"]] + [_bits(v) for v in values])
        elif name == "solvers.nc_row_reduce":
            amat = args[0]
            self.counts["solvers.nc_row_reduce.cells"] += len(amat) * len(amat[0])
        elif name == "solvers.solve_richardson":
            if result.kind != "inconsistent":
                self.counts["solvers.richardson_candidates"] += 1
                if result.kind in ("unique", "parametric"):
                    self.counts["solvers.richardson_verified"] += 1
        elif name == "newton.newton_solve":
            self.counts["newton.iterations"] += len(result.iterates) - 1
            self.counts["newton.attempted"] += 1
            if result.status == "converged":
                self.counts["newton.converged"] += 1

    def _span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx, type(exc).__name__)
                raise
            self._close(idx)
            self._observe(name, args, result)
            return result
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installing -------------------------------------------------------------

    def _find_patches(self):
        """(owner, attribute, original, wrapper) for every target binding."""
        import ncalg.cli  # noqa: F401  (load every ncalg module before patching)

        patches = []
        for targets, make in ((SPANNED, self._span_wrapper),
                              (COUNTED, self._count_wrapper)):
            for module_name, path, span_name in targets:
                module = sys.modules[module_name]
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    patches.append((owner, attr, original, make(span_name, original)))
                    continue
                original = getattr(module, path)
                wrapped = make(span_name, original)
                for mod_name, mod in list(sys.modules.items()):
                    if (mod_name == "ncalg" or mod_name.startswith("ncalg.")) \
                            and getattr(mod, path, None) is original:
                        patches.append((mod, path, original, wrapped))
        return patches

    def enable(self):
        if self._patches is None:
            self._patches = self._find_patches()
        for owner, attr, _original, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def disable(self):
        for owner, attr, original, _wrapped in reversed(self._patches or ()):
            setattr(owner, attr, original)

    # -- summarising --------------------------------------------------------------

    def self_times(self):
        """Per span name: (total self ns, calls)."""
        child = defaultdict(int)
        for _name, start, end, parent, _op, _err in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(int)
        calls = Counter()
        for idx, (name, start, end, *_rest) in enumerate(self.spans):
            total[name] += end - start - child[idx]
            calls[name] += 1
        return total, calls

    def ops_that_ran(self, span_name):
        """Op ids with a span of this name that returned without raising."""
        return {op_id for name, _s, _e, _p, op_id, err in self.spans
                if name == span_name and err is None}
