"""In-memory spans around fsym's module-level functions, for the traced run.

``Tracer.install`` replaces each traced function, at the module that defines
it and at every module that imported it by name, with a wrapper that records a
span: name, start, end, parent span and the enclosing fit. The two constraint
factories of ``fitting`` return constraints whose callbacks are wrapped the same
way. ``Tracer.restore`` puts every original attribute back.

Spans are kept in memory for one pass; ``fold`` turns them into per-name call
counts, inclusive seconds and self seconds (inclusive minus the direct child
spans) and clears them.
"""

from __future__ import annotations

import dataclasses
import importlib
import time

import fsym

_modules = {
    name: importlib.import_module(f"fsym.{name}")
    for name in ("tables", "chi2", "design", "moments", "wald", "projection",
                 "simulate", "fitting")
}

# Span name and the module attributes that hold the function. The package
# itself counts as an import site, since the workloads call through it.
TRACED = (
    ("tables.orbit_sums", ("tables", "fitting", "wald")),
    ("chi2.chi2_sf", ("chi2", "fitting", "wald")),
    ("design.score_vector", ("design",)),
    ("design.moment_matrix", ("design",)),
    ("moments.moments", ("moments", "fsym")),
    ("wald.f_jacobian", ("wald", "fitting", "fsym")),
    ("wald.decompose", ("wald", "fsym")),
    ("projection.iproject", ("projection", "fsym")),
    ("simulate.mvn_sample", ("simulate", "fsym")),
    ("simulate.discretize", ("simulate", "fsym")),
    ("fitting.fit_hlp", ("fitting", "fsym")),
    ("fitting.fit_model", ("fitting", "simulate", "fsym")),
)
# Constraint factories whose callbacks get spans named fitting.<kind>_<callback>.
CONSTRAINT_FACTORIES = (("linkform_constraint", "link"), ("moment_constraint", "moment"))
FIT_MODEL = "fitting.fit_model"


def _site(name: str):
    return fsym if name == "fsym" else _modules[name]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, fit]
        self.stack: list[int] = []
        # (family kind, iterations or None after a FitError, seconds) per fit
        self.fits: list[tuple[str, int | None, float]] = []
        self.saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            fit = idx if name == FIT_MODEL else (spans[parent][4] if parent >= 0 else -1)
            spans.append([name, time.perf_counter(), 0.0, parent, fit])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()

        wrapper.__wrapped__ = fn
        return wrapper

    def _fit_model(self, fn):
        fitting = _modules["fitting"]

        def fit_model(counts, spec, **kwargs):
            if spec.family in fitting.design.ASYMMETRY_FAMILIES:
                kind = "link"
            elif spec.family in fitting.MOMENT_FAMILIES:
                kind = "moment"
            else:
                kind = "symmetry"
            iterations = None
            t0 = time.perf_counter()
            try:
                fit = fn(counts, spec, **kwargs)
                iterations = fit.iterations
                return fit
            finally:
                self.fits.append((kind, iterations, time.perf_counter() - t0))

        return fit_model

    def _constraint_factory(self, kind: str, fn):
        def build(*args, **kwargs):
            c = fn(*args, **kwargs)
            return dataclasses.replace(
                c,
                fun=self.span(f"fitting.{kind}_fun", c.fun),
                jac=self.span(f"fitting.{kind}_jac", c.jac),
                hess=None if c.hess is None else self.span(f"fitting.{kind}_hess", c.hess),
            )

        return build

    def _patch(self, site, attr: str, new) -> None:
        self.saved.append((site, attr, getattr(site, attr)))
        setattr(site, attr, new)

    def install(self) -> None:
        if self.saved:
            raise RuntimeError("tracer already installed")
        try:
            for name, sites in TRACED:
                attr = name.split(".")[1]
                original = getattr(_site(sites[0]), attr)
                if name == FIT_MODEL:
                    original = self._fit_model(original)
                wrapper = self.span(name, original)
                for site in sites:
                    self._patch(_site(site), attr, wrapper)
            fitting = _modules["fitting"]
            for attr, kind in CONSTRAINT_FACTORIES:
                self._patch(fitting, attr, self._constraint_factory(kind, getattr(fitting, attr)))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self.saved:
            site, attr, original = self.saved.pop()
            setattr(site, attr, original)

    def fold(self, totals: "Totals") -> None:
        """Add this pass's spans and fits to ``totals`` and forget them."""
        if self.stack:
            raise RuntimeError("fold called inside an open span")
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _, _), inner in zip(spans, child):
            entry = totals.layers.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - inner
        totals.fits.extend(self.fits)
        totals.passes += 1
        spans.clear()
        self.fits.clear()


@dataclasses.dataclass
class Totals:
    """Traced passes folded together."""

    layers: dict = dataclasses.field(default_factory=dict)  # name -> [calls, incl s, self s]
    fits: list = dataclasses.field(default_factory=list)
    passes: int = 0
