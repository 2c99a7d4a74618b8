"""Per-layer tracing from outside the program.

A Tracer replaces hullcodes' public functions with wrappers while it is
installed, in every hullcodes module that holds a reference to them,
and puts the originals back when it is removed.  Functions get spans
(call count and self time: the span's duration minus its child spans);
field arithmetic gets call counts only, because timing tens of millions
of tiny calls would measure the wrapper instead of the field.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute) -> span name; several functions may share a name.
SPANS = {
    ("linalg", "determinant"): "linalg.determinant",
    ("linalg", "interpolate"): "linalg.interpolate",
    ("linalg", "rref"): "linalg.rref",
    ("linalg", "nullspace"): "linalg.nullspace",
    ("grs", "eval_set"): "grs.eval_set",
    ("grs", "generator_matrix"): "grs.generator_matrix",
    ("grs", "encode"): "grs.encode",
    ("hull", "hull_report"): "hull.hull_report",
    ("hull", "certify_grs_self_orthogonal"): "hull.certify",
    ("hull", "certify_egrs_self_orthogonal"): "hull.certify",
    ("hull", "check_certificate"): "hull.check_certificate",
    ("hull", "hull_membership"): "hull.hull_membership",
    ("construct", "make_seed"): "construct.make_seed",
    ("construct", "reduce_hull_grs"): "construct.reduce",
    ("construct", "reduce_hull_egrs"): "construct.reduce",
    ("construct", "reduce_hull_egrs_from_grs"): "construct.reduce",
    ("families", "build_family"): "families.build_family",
    ("oracle", "is_mds"): "oracle.is_mds",
    ("oracle", "_all_minors_nonzero"): "oracle.minors",
    ("oracle", "min_distance"): "oracle.min_distance",
    ("oracle", "hull_dim_oracle"): "oracle.hull_dim_oracle",
    ("cli", "main"): "cli.main",
}

# Field method -> counter name (add, sub and neg share one counter).
COUNTED = {"mul": "gf.mul", "add": "gf.add", "sub": "gf.add", "neg": "gf.add", "inv": "gf.inv"}

_MARK = "_perfbench_wrapper"


def hullcodes_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hullcodes" or name.startswith("hullcodes."))]


class Tracer:
    """Counts and self times per layer while installed (use as a context manager)."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.minors_examined = 0
        self.codewords = 0
        self.mds_routes = {"enumeration": 0, "minors": 0, "skipped": 0}
        self._stack = [0.0]
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self):
        import hullcodes.gf as gf

        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = hullcodes_modules()
        for (modname, attr), name in SPANS.items():
            original = getattr(sys.modules[f"hullcodes.{modname}"], attr)
            wrapper = self._span(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for method, name in COUNTED.items():
            original = gf.Field.__dict__[method]
            self._patches.append((gf.Field, method, original))
            setattr(gf.Field, method, self._counter(name, original))

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def _counter(self, name, fn):
        calls = self.calls

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        setattr(wrapper, _MARK, True)
        return wrapper

    def _span(self, name, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        hook = {
            "oracle.is_mds": self._is_mds_hook,
            "oracle.minors": self._minors_hook,
            "oracle.min_distance": self._min_distance_hook,
        }.get(name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            after = hook(*args) if hook else None
            stack.append(0.0)
            t0 = perf_counter()
            failed = True
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                dur = perf_counter() - t0
                self_s[name] += dur - stack.pop()
                stack[-1] += dur
                if after:
                    after(failed)

        setattr(wrapper, _MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks that classify what a referee call actually did --

    def _is_mds_hook(self, *args):
        before = (self.calls["oracle.minors"], self.calls["oracle.min_distance"])

        def after(failed):
            if self.calls["oracle.minors"] > before[0]:
                self.mds_routes["minors"] += 1
            elif self.calls["oracle.min_distance"] > before[1]:
                self.mds_routes["enumeration"] += 1
            else:
                # is_mds raised BudgetError before running any referee
                self.mds_routes["skipped"] += 1

        return after

    def _minors_hook(self, *args):
        before = self.calls["linalg.determinant"]

        def after(failed):
            self.minors_examined += self.calls["linalg.determinant"] - before

        return after

    def _min_distance_hook(self, code, *args):
        q, k = code.field.q, code.k

        def after(failed):
            if not failed:
                self.codewords += (q**k - 1) // (q - 1)

        return after

    def metrics(self) -> dict:
        """Per-layer metric name -> value."""
        c, s = self.calls, self.self_s
        return {
            "gf.mul.calls": c["gf.mul"],
            "gf.add.calls": c["gf.add"],
            "gf.inv.calls": c["gf.inv"],
            "linalg.determinant.calls": c["linalg.determinant"],
            "linalg.determinant.self_s": s["linalg.determinant"],
            "linalg.interpolate.calls": c["linalg.interpolate"],
            "linalg.interpolate.self_s": s["linalg.interpolate"],
            "linalg.rref.calls": c["linalg.rref"],
            "linalg.rref.self_s": s["linalg.rref"],
            "linalg.nullspace.self_s": s["linalg.nullspace"],
            "grs.eval_set.self_s": s["grs.eval_set"],
            "grs.generator_matrix.self_s": s["grs.generator_matrix"],
            "grs.encode.calls": c["grs.encode"],
            "hull.hull_report.self_s": s["hull.hull_report"],
            "hull.certify.self_s": s["hull.certify"],
            "hull.check_certificate.self_s": s["hull.check_certificate"],
            "hull.hull_membership.calls": c["hull.hull_membership"],
            "hull.hull_membership.self_s": s["hull.hull_membership"],
            "construct.make_seed.self_s": s["construct.make_seed"],
            "construct.reduce.self_s": s["construct.reduce"],
            "families.build_family.self_s": s["families.build_family"],
            "oracle.is_mds.self_s": s["oracle.is_mds"],
            "oracle.mds_by_enumeration": self.mds_routes["enumeration"],
            "oracle.mds_by_minors": self.mds_routes["minors"],
            "oracle.mds_skipped": self.mds_routes["skipped"],
            "oracle.minors_examined": self.minors_examined,
            "oracle.min_distance.self_s": s["oracle.min_distance"],
            "oracle.min_distance.codewords": self.codewords,
            "oracle.hull_dim_oracle.self_s": s["oracle.hull_dim_oracle"],
            "cli.main.self_s": s["cli.main"],
        }


def leftover_wrappers() -> list[str]:
    """Names of hullcodes attributes that are still tracer wrappers."""
    import hullcodes.gf as gf

    owners = [(m.__name__, m) for m in hullcodes_modules()] + [("hullcodes.gf.Field", gf.Field)]
    return [f"{label}.{key}" for label, owner in owners
            for key, value in vars(owner).items() if getattr(value, _MARK, False)]
