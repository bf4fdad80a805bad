"""Spans around the layer boundaries of ``evocontrol``, from outside.

``install`` replaces module (and class) attributes with wrappers that
record a span (name, start, end, parent span, answer id) and returns a
function that puts the originals back. This works because callers
resolve these names at call time: ``heat`` calls ``ode.integrate``,
``picard`` and ``kaplan`` call ``quad.prefix_weights``, ``fd`` calls
``fd_single_run``, and so on.

Right-hand-side calls are too many for one span each. The
``ode.integrate`` wrapper instead swaps ``spec.rhs`` for a timing shim
for the length of the call and stores the count and time on the
integration's span. That time belongs to the module that defined the
right-hand side (``heat`` for the coupled (a, R) system, also when
``picard`` integrates it; ``fd`` for the method of lines; ``kaplan`` for
the comparison ODE) and is subtracted from the integrator's self time.

Spans stay in memory; the worker writes them out after the last pass.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

from evocontrol import fd, galerkin, heat, kaplan, ode, picard, sobolev
from evocontrol import quadrature

# (owner, attribute, span name); the layer is the part before the dot
TARGETS = (
    (ode, "integrate", "ode.integrate"),
    (ode.IvpOutcome, "interpolate", "ode.interpolate"),
    (heat, "table_rows", "heat.table_rows"),
    (heat, "run_scenario", "heat.run_scenario"),
    (heat, "critical_amplitude", "heat.critical_amplitude"),
    (heat, "rescaled_limit", "heat.rescaled_limit"),
    (heat, "scenario_record", "heat.serialize"),
    (heat, "write_json", "heat.serialize"),
    (heat, "write_scenario_csv", "heat.serialize"),
    (galerkin, "build_model", "galerkin.build_model"),
    (galerkin.EpsilonForm, "value_many", "galerkin.value_many"),
    (kaplan, "comparison_blowup_time", "kaplan.comparison_blowup_time"),
    (kaplan, "kaplan_time_by_quadrature", "kaplan.quadrature"),
    (kaplan, "sn_iteration", "kaplan.sn_iteration"),
    (fd, "fd_blowup_time", "fd.fd_blowup_time"),
    (fd, "fd_single_run", "fd.fd_single_run"),
    (fd, "limit_profile_check", "fd.limit_profile_check"),
    (quadrature, "prefix_weights", "quadrature.prefix_weights"),
    (picard, "verify_heat_scenario", "picard.verify_heat_scenario"),
    (picard, "iterate_and_check", "picard.iterate_and_check"),
    (picard, "volterra_apply", "picard.volterra_apply"),
    (sobolev, "sobolev_report", "sobolev.sobolev_report"),
    (sobolev, "algebra_property_test", "sobolev.algebra_property_test"),
    (sobolev, "best_ratio", "sobolev.best_ratio"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "answer", "children_s",
                 "extra")

    def __init__(self, name, start, parent, answer):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.answer = answer
        self.children_s = 0.0
        self.extra = {}

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.children_s

    def to_dict(self, index: int) -> dict:
        return {"id": index, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "answer": self.answer, "self_s": self.self_s, **self.extra}


class Tracer:
    """Span recorder for one traced pass; ``answer`` is set by the
    caller before each answer."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.answer: str | None = None

    def open(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(name, perf_counter(), parent, self.answer)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self.stack.pop()
        if span.parent is not None:
            self.spans[span.parent].children_s += span.end - span.start

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return traced

    def wrap_integrate(self, fn):
        def traced(spec):
            rhs = spec.rhs
            acc = [0, 0.0]

            def timed_rhs(t, y):
                t0 = perf_counter()
                out = rhs(t, y)
                acc[1] += perf_counter() - t0
                acc[0] += 1
                return out

            span = self.open("ode.integrate")
            spec.rhs = timed_rhs
            try:
                outcome = fn(spec)
            finally:
                spec.rhs = rhs
                self.close(span)
                span.children_s += acc[1]
                span.extra.update(
                    rhs_layer=getattr(rhs, "__module__", "?").rsplit(".", 1)[-1],
                    rhs_calls=acc[0], rhs_s=acc[1], dim=spec.dimension,
                )
            span.extra.update(accepted=len(outcome.times) - 1,
                              kind=outcome.kind)
            return outcome

        return traced

    def wrap_counted(self, fn, name: str, measure):
        """Span plus a deterministic size taken from the arguments."""
        def traced(*args, **kwargs):
            span = self.open(name)
            span.extra.update(measure(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return traced


_MEASURES = {
    "quadrature.prefix_weights": lambda n_points, h: {"n": n_points},
    "picard.volterra_apply":
        lambda problem, psi, W=None: {"modes": len(problem.indices)},
    "sobolev.algebra_property_test":
        lambda seed=0, trials=10_000, **_: {"trials": trials},
}


def install(tracer: Tracer):
    """Wrap every target; returns a function that removes the wrappers."""
    originals = []
    for owner, attr, name in TARGETS:
        fn = owner.__dict__[attr]
        if name == "ode.integrate":
            wrapped = tracer.wrap_integrate(fn)
        elif name in _MEASURES:
            wrapped = tracer.wrap_counted(fn, name, _MEASURES[name])
        else:
            wrapped = tracer.wrap(fn, name)
        originals.append((owner, attr, fn))
        setattr(owner, attr, wrapped)

    def remove():
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)

    return remove


def pass_metrics(spans: list[Span]) -> tuple[dict, Counter]:
    """Per-layer times (seconds) and deterministic counters of one pass."""
    t = defaultdict(float)
    c = Counter()
    for s in spans:
        t[f"{s.layer}.self_s"] += s.self_s
        c[f"{s.name}.calls"] += 1
        t[f"{s.name}.s"] += s.end - s.start
        t[f"{s.name}.self_s"] += s.self_s
        x = s.extra
        if s.name == "ode.integrate":
            c["ode.accepted_steps"] += x.get("accepted", 0)
            c["ode.rhs_calls"] += x["rhs_calls"]
            c[f"ode.outcome.{x.get('kind', 'raised')}"] += 1
            # times + states + derivs of the stored history, float64
            c["ode.history_bytes_max"] = max(
                c["ode.history_bytes_max"],
                (x.get("accepted", 0) + 1) * (2 * x["dim"] + 1) * 8)
            layer = x["rhs_layer"]
            c[f"{layer}.rhs.calls"] += x["rhs_calls"]
            t[f"{layer}.rhs.s"] += x["rhs_s"]
            t[f"{layer}.self_s"] += x["rhs_s"]
            if layer == "fd":
                c["fd.grid_points"] += x["dim"]
            if _inside(spans, s, "heat.critical_amplitude"):
                c["heat.critical_amplitude.integrations"] += 1
        elif s.name == "quadrature.prefix_weights":
            c["quadrature.prefix_bytes_max"] = max(
                c["quadrature.prefix_bytes_max"], x["n"] * x["n"] * 8)
        elif s.name == "picard.volterra_apply":
            c["picard.mode_convolutions"] += x["modes"]
        elif s.name == "sobolev.algebra_property_test":
            c["sobolev.trials"] += x["trials"]
    c["trace.spans"] = len(spans)
    return dict(t), c


def _inside(spans: list[Span], span: Span, name: str) -> bool:
    while span.parent is not None:
        span = spans[span.parent]
        if span.name == name:
            return True
    return False

