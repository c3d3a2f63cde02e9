"""Spans around the calls into each tpspeckle layer, recorded from outside.

``install`` replaces the module attributes that callers look up at call
time (``cli.rate_theta``, ``rates.quad``, ``montecarlo.covariance_factor``
and so on) with wrappers that record a span per call: name, start, end,
the enclosing span and a few attributes of the call.  Nothing under
``src/`` changes; the wrapping lives only in the traced child process.
Spans stay in memory until ``dump`` writes them out at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

CLOSED = "rates.closed"
QUAD = "rates.quad"
NUMERIC = "rates.rate_numeric"
MC = "montecarlo.mc_correlator"
FACTOR = "correlation.covariance_factor"
AMPLITUDE = "states.grid_amplitude_matrix"
CLI = "cli.main"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, attrs or None]
        self._open = []

    def wrap(self, module, attr: str, name: str, attrs=None) -> None:
        """Replace ``module.attr`` by a recording wrapper.

        ``attrs(args, kwargs, result)`` returns the span's attributes.
        """
        fn = getattr(module, attr)
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), None, open_[-1] if open_ else None, None]
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_.pop()
                span[2] = time.perf_counter()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        setattr(module, attr, wrapper)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def metrics(self) -> dict:
        """Per-layer counts and times; a self time excludes child spans."""
        duration = [s[2] - s[1] for s in self.spans]
        self_time = list(duration)
        for s, d in zip(self.spans, duration):
            if s[3] is not None:
                self_time[s[3]] -= d
        by_name = defaultdict(list)
        for i, s in enumerate(self.spans):
            by_name[s[0]].append(i)

        def total(name, times=duration):
            return sum(times[i] for i in by_name[name])

        def ratio(num, den):
            return num / den if den else 0.0

        def attr(i, key):  # a call that raised has no attributes
            return (self.spans[i][4] or {}).get(key, 0)

        closed = by_name[CLOSED]
        picked = {kind: [i for i in closed if attr(i, "kind") == kind] for kind in ("I", "II")}
        us_per_point = {kind: ratio(1e6 * sum(duration[i] for i in points), len(points))
                        for kind, points in picked.items()}

        numeric = by_name[NUMERIC]
        mc = by_name[MC]
        realizations = sum(attr(i, "n") for i in mc)
        members = {}
        for i in mc:
            key = attr(i, "ensemble")
            members[key] = max(members.get(key, 0), attr(i, "n"))
        mc_self = total(MC, self_time)
        factors = by_name[FACTOR]
        return {
            "rates.closed.points": len(closed),
            "rates.closed.self_s": total(CLOSED, self_time),
            "rates.closed.modelII_points": len(picked["II"]),
            "rates.closed.modelII_us_per_point": us_per_point["II"],
            "rates.closed.modelI_us_per_point": us_per_point["I"],
            "rates.quad.calls": len(by_name[QUAD]),
            # quad spans nest only inside quad (an integrand that integrates),
            # so their self times add up to the time covered by quad
            "rates.quad.s": total(QUAD, self_time),
            "rates.numeric.taus": len(numeric),
            "rates.numeric.s_per_tau": ratio(total(NUMERIC), len(numeric)),
            "rates.numeric.max_error": max((attr(i, "error") for i in numeric), default=0.0),
            "montecarlo.mc_correlator.calls": len(mc),
            "montecarlo.mc_correlator.self_s": mc_self,
            "montecarlo.realizations": realizations,
            "montecarlo.us_per_realization": ratio(1e6 * mc_self, realizations),
            "montecarlo.redraw_ratio": ratio(realizations, sum(members.values())),
            "correlation.covariance_factor.calls": len(factors),
            "correlation.covariance_factor.s": total(FACTOR),
            "correlation.jitter_used.max": max((attr(i, "jitter") for i in factors), default=0.0),
            "states.grid_amplitude_matrix.calls": len(by_name[AMPLITUDE]),
            "states.grid_amplitude_matrix.s": total(AMPLITUDE),
            "cli.commands": len(by_name[CLI]),
            "cli.self_s": total(CLI, self_time),
        }


def _kind_of(fn):
    """Attribute function reading the model kind ("I"/"II") argument of a reduced form."""
    params = inspect.signature(fn).parameters
    at = list(params).index("kind")
    default = params["kind"].default

    def attrs(args, kwargs, result):
        return {"kind": kwargs.get("kind", args[at] if len(args) > at else default)}

    return attrs


def install(cli, rates, montecarlo, correlation) -> Tracer:
    """Wrap the layer entry points of an imported tpspeckle package."""
    tracer = Tracer()
    tracer.wrap(cli, "main", CLI, lambda a, k, r: {"argv": list(a[0])[:1]})

    # closed forms, called by `figure` (reduced forms) and `mc-validate`
    for name in ("rate_entangled", "rate_fock", "rate_coherent", "rate_theta"):
        tracer.wrap(cli, name, CLOSED, _kind_of(getattr(cli, name)))
    tracer.wrap(cli, "rate_entangled_cw_limit", CLOSED, lambda a, k, r: {"kind": "cw"})

    def closed_form_kind(args, kwargs, result):
        model = kwargs.get("model", args[1] if len(args) > 1 else None)
        return {"kind": "II" if isinstance(model, correlation.ModelII)
                else "I" if isinstance(model, correlation.ModelI) else "cw"}

    tracer.wrap(cli, "rate_closed_form", CLOSED, closed_form_kind)
    tracer.wrap(rates, "quad", QUAD)
    tracer.wrap(rates, "rate_numeric", NUMERIC, lambda a, k, r: {"error": r.error})

    # Monte Carlo: `rate` reaches mc_correlator through mc_estimate_rows,
    # `mc-validate` calls it from the CLI directly
    def ensemble(args, kwargs, result):
        cfg = kwargs.get("cfg", args[1] if len(args) > 1 else None)
        return {"ensemble": repr((cfg.seed, cfg.grid, cfg.model, cfg.t_bar)), "n": cfg.n_realizations}

    tracer.wrap(cli, "mc_correlator", MC, ensemble)
    tracer.wrap(montecarlo, "mc_correlator", MC, ensemble)
    tracer.wrap(montecarlo, "covariance_factor", FACTOR, lambda a, k, r: {"jitter": r.jitter_used})
    tracer.wrap(montecarlo, "grid_amplitude_matrix", AMPLITUDE)
    return tracer
