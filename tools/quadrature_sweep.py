"""The 72-batch check of the sinc quadrature against the closed forms.

Runs ``rate_numeric`` over every combination of pump width sigma
(0.25, 1, 2), state (entangled, symmetrized at theta = 0, pi/2, pi),
model (Model I at 1, 1e3, 1e9; Model II at 1, 3, 30) and the taus 0, 0.5,
2 and 10, with omega_bar = 100, nu_o = 1.5 and nu_e = 0.5 (eta_- = 1).
Prints one line per batch: its refusal, or the ``repr`` of each value and
error with the worst |quadrature - closed form| / error; then the number
of ``rates.quad`` calls it made.  The last line counts the refused
batches.  Exits 1 if an accepted value lies outside its error.

    PYTHONPATH=src python tools/quadrature_sweep.py

Where two checkouts agree bit for bit on every value, error and refusal,
``diff`` of their outputs shows only the call counts.
"""

import math
import sys
from itertools import product

from tpspeckle import (
    CrystalParams,
    EntangledState,
    ModelI,
    ModelII,
    PumpParams,
    QuadratureNotConvergedError,
    SymmetrizedState,
    rate_closed_form,
    rate_numeric,
    rates,
)

SIGMAS = [0.25, 1.0, 2.0]
STATES = [("entangled", None), ("theta=0", 0.0), ("theta=pi/2", 0.5 * math.pi), ("theta=pi", math.pi)]
MODELS = [ModelI(1.0), ModelI(1e3), ModelI(1e9), ModelII(1.0), ModelII(3.0), ModelII(30.0)]
TAUS = [0.0, 0.5, 2.0, 10.0]
CRYSTAL = CrystalParams(nu_o=1.5, nu_e=0.5)


def main() -> int:
    quad = rates.quad
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return quad(*args, **kwargs)

    rates.quad = counted
    batches = list(product(SIGMAS, STATES, MODELS))
    refused = outside = 0
    try:
        for sigma, (name, theta), model in batches:
            pump = PumpParams(100.0, sigma)
            state = EntangledState(pump, CRYSTAL) if theta is None else SymmetrizedState(pump, CRYSTAL, theta)
            calls.clear()
            head = f"sigma={sigma} {name} {model!r}:"
            try:
                results = rate_numeric(state, model, TAUS)
            except QuadratureNotConvergedError as exc:
                refused += 1
                print(f"{head} refused: {exc}; quad calls {len(calls)}")
                continue
            closed = rate_closed_form(state, model, TAUS)
            worst = max(abs(res.value - c) / res.error for res, c in zip(results, closed))
            outside += worst > 1.0
            pairs = " ".join(f"{float(res.value)!r}+-{float(res.error)!r}" for res in results)
            print(f"{head} {pairs}; worst |diff|/error {worst:.3g}; quad calls {len(calls)}")
    finally:
        rates.quad = quad
    print(f"refused {refused} of {len(batches)}; accepted values outside their error: {outside}")
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main())
