"""Spans and counters recorded around calls into matchow, from outside it.

`Tracer.install` replaces public functions at the module namespaces their
callers look them up through (for example `matchow.cli.deg_stable` and
`matchow.stable.solve_linear`) and the `Matroid` / `FlatLattice` methods
with wrappers that record a span; `remove` puts the originals back.  Spans
stay in memory until the pass ends.  A span's self time is its duration
minus the time covered by its children; summing self time by layer (the
part of the span name before the dot) splits a request's time without
double counting.  The request's root span is `cli.request`, so the self time
of `cli` is request time not covered by any layer.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional

LAYERS = ("cli", "matroid", "chowlex", "piecewise", "stable", "exact", "fan", "tropical")

Counts = Callable[[tuple, object], Dict[str, int]]


def _calls(name: str) -> Counts:
    return lambda args, result: {name: 1}


class Tracer:
    """Records spans [name, start, end, parent index] and named counts."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._open: List[int] = []
        self._originals: List[tuple] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn inside a span named name."""
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self.spans.append(span)
        self._open.append(index)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._open.pop()

    # -- interposition -------------------------------------------------------

    def _replace(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._originals.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def span(self, owner, attr: str, name: str, counts: Optional[Counts] = None) -> None:
        """Wrap owner.attr in a span, adding counts(args, result) afterwards."""

        def make(fn):
            def traced(*args, **kwargs):
                result = self.call(name, fn, *args, **kwargs)
                if counts is not None:
                    self.counts.update(counts(args, result))
                return result

            return traced

        self._replace(owner, attr, make)

    def count(self, owner, attr: str, counts: Counts) -> None:
        """Wrap owner.attr with counts only, for calls too frequent to span."""

        def make(fn):
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.counts.update(counts(args, result))
                return result

            return counted

        self._replace(owner, attr, make)

    def install(self) -> None:
        import matchow.cli as cli
        import matchow.fan as fan
        import matchow.piecewise as piecewise
        import matchow.stable as stable
        import matchow.tropical as tropical
        from matchow.matroid import FlatLattice, Matroid

        self.span(Matroid, "__init__", "matroid.construct",
                  lambda a, r: {"matroid.construct_calls": 1, "matroid.bases": len(a[0].bases)})
        for ctor in ("uniform", "from_graph", "fano"):
            self.span(Matroid, ctor, "matroid.construct")
        self.span(FlatLattice, "__init__", "matroid.lattice",
                  lambda a, r: {"matroid.flats": sum(map(len, a[0].flats_by_rank))})
        self.span(Matroid, "char_poly", "matroid.char_poly", _calls("matroid.char_poly_calls"))
        self.span(Matroid, "mu", "matroid.whitney")
        self.span(Matroid, "mu_vector", "matroid.whitney")
        self.span(Matroid, "chains_with_descent_set", "matroid.chains")

        self.span(cli, "deg_lex", "chowlex.deg_lex", lambda a, r: {"chowlex.flags": r})
        self.span(cli, "deg_pp", "piecewise.deg_pp", _calls("piecewise.deg_pp_calls"))
        self.count(piecewise, "chamber_denominator", _calls("piecewise.chambers"))
        self.count(piecewise, "generic_point", _calls("piecewise.points_drawn"))
        self.span(cli, "deg_stable", "stable.deg_stable", _calls("stable.deg_stable_calls"))
        self.count(stable, "intersect_triple",
                   lambda a, r: {"stable.triples": 1, "stable.points": int(r is not None)})
        self.count(stable, "displacement_vectors", _calls("stable.draws"))
        self.span(stable, "solve_linear", "exact.solve_linear",
                  _calls("exact.solve_linear_calls"))
        self.span(stable, "lattice_index", "exact.lattice_index",
                  _calls("exact.lattice_index_calls"))
        self.span(fan, "in_rational_span", "exact.span_test", _calls("exact.span_test_calls"))

        cones = lambda a, r: {"fan.cones": len(r.weights)}  # noqa: E731
        balancing = _calls("fan.balancing_calls")
        for module in (cli, stable, tropical):
            self.span(module, "matroid_fan", "fan.matroid_fan", cones)
        self.span(cli, "is_balanced", "fan.balancing", balancing)
        self.span(tropical, "require_balanced", "fan.balancing", balancing)

        self.span(cli, "deg_tropical", "tropical.deg_tropical")
        self.span(tropical, "divisor", "tropical.divisor", _calls("tropical.divisor_calls"))
        self.span(cli, "truncation_weight", "tropical.truncation")

    def remove(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, each span's duration minus its children's."""
        out: Dict[str, float] = Counter()
        for name, start, end, parent in self.spans:
            out[name] += end - start
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return dict(out)

    def inclusive_share(self, layers, total: float) -> float:
        """Share of total spent under the outermost spans of the given layers."""
        inside = [False] * len(self.spans)
        covered = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            above = parent >= 0 and (inside[parent] or layer_of(self.spans[parent][0]) in layers)
            inside[i] = above
            if not above and layer_of(name) in layers:
                covered += end - start
        return covered / total


def layer_of(name: str) -> str:
    """The layer of a span name: the part before the first dot."""
    return name.split(".", 1)[0]
