"""Monte Carlo verification of the disorder-averaged rates.

Draws correlated circular-Gaussian transmission coefficients
``t_o(w), t_e(w)`` on a frequency grid (one independent vector per output
mode and polarization), evaluates the per-realization normally ordered
correlator of the transmitted light - the quantity that fluctuates from
one speckle realization to the next - and averages over realizations.
Per realization, for the two-photon states,

    <:n^2:> = Sum |B(w1,w2)|^2 [ |t_e(w2) t_o(w1)|^2 + |t_o(w2) t_e(w1)|^2 ]
            + 2 Re Sum B(w1,w2) B*(w2,w1) t_e(w2) t_e*(w1) t_o(w1) t_o*(w2)
                  * e^{i(w1-w2) tau}

(the delayed arm enters as t_e(w) -> t_e(w) e^{-i w tau}); for the
coherent state the correlator factorizes into the squared time-integrated
intensity ``(Int a^2 |t_e e^{-i w tau} + t_o|^2 dw)^2``.  Rates follow by
dividing by ``t_bar^2 (1 + delta_ij)``.

Sampling-time integrals are already the infinite-window delta functions,
so no time grid exists; everything lives on the frequency grid.

Every estimator runs through one chunked ensemble pass (``_ensemble``):
per chunk it draws ``(t_o, t_e)`` for each output mode (``_draws``) and
hands them to a per-realization function reading ``_operators``.  The
same-mode and cross-mode correlators share one pair estimator of two
modes' draws (mode 0 twice for same-mode); they differ only in the norm.

Each process of a pass allocates one workspace (``_Workspace``), and
each of its chunks draws and contracts in it through ``out=``: a pass
faults its pages in once per process, not once per chunk, with the bits
of the allocating formulas.

The transmissions do not depend on the delay, so a rate curve takes one
draw per curve: ``mc_correlator_batch`` draws each chunk once and
evaluates the estimator at every tau of the curve (the tau-independent
direct term once per chunk, the exchange term per tau).  Its value
buffer holds one row per tau; past ``_VALUE_BUDGET`` values the taus are
split into groups that draw once each.  ``mc_correlator`` is its
same-mode call at one tau; ``cross_mode=True`` gives the cross-mode rate.

Randomness is counter-based (Philox): stream (realization r, mode m,
polarization p) uses counter ``[0, 0, 2 m + p, r]`` under the master seed,
so results are bit-identical regardless of batching or worker count.  One
Philox bit generator per stream and chunk is reset to each realization's
counter, rather than constructing a new generator per realization, and
fills that realization's row of a real (chunk, 2n) buffer with a single
call of 2n normals: the real parts, then the imaginary parts.

A pass of at least ``2 * _WORKER_CHUNKS`` chunks may split across the
CPUs of the process's affinity mask: its chunks go in W contiguous runs
of whole chunks (``_runs``), W the smaller of the usable CPUs and the
chunk count over ``_WORKER_CHUNKS``, the fewest chunks that repay a fork
on the measured break-even (``BENCH_28.json``).  The calling process
runs the first run; each other run runs in a worker forked for it
(multiprocessing's ``"fork"`` context, imported only here), with its own
workspace, and sends its values back through a pipe into their place in
realization order.  Every chunk keeps its shapes and products, so every
estimate has the bits of a one-process pass.  The covariance factor and
the operators are built before the fork, and every worker inherits them.
The pass stays in one process (``_usable_cpus``) where the process runs
more than one OS thread, since forking a threaded process is unsafe and
a threaded BLAS would oversubscribe the CPUs, and where the platform has
no affinity API.  A worker that cannot be forked leaves its run, and
the runs after it, to the caller.  A worker's exception is raised again
in the caller; a worker that dies raises ``TpspeckleError``; every
worker is joined (or terminated and joined) before the pass returns or
raises.

Real matrices take real products, chosen by dtype.  Model I's covariance
factor is real (``_factor`` keeps a real copy), so ``L u`` is two real
products, one per half of the buffer; the exchange operator ``g_t`` is
real for the entangled and Fock states, so ``g_t u`` is one real product
over the interleaved real and imaginary parts.  Both give the bits of
the complex products they replace; Model II's complex factor and the
complex ``g_t`` of other symmetrized states keep the complex products.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from numpy.random import Generator, Philox

from .correlation import CorrelationModel, FrequencyGrid, _model_scale, covariance_factor
from .errors import TpspeckleError
from .states import (
    CoherentState,
    EntangledState,
    FockState,
    StateSpec,
    SymmetrizedState,
    grid_amplitude_matrix,
    grid_envelope,
)
from .states import _continuum_norm, _grid_mass

__all__ = [
    "EnsembleConfig",
    "McEstimate",
    "RateRelation",
    "BeamSplitterReport",
    "mc_default_grid",
    "sample_transmission",
    "mc_correlator",
    "mc_correlator_batch",
    "mc_mean_photocount",
    "rate_correlation_relation",
    "beam_splitter_check",
]

_CHUNK = 512
_WORKER_CHUNKS = 4  # the fewest chunks per process of a split pass (break-even in BENCH_28.json)
# float64 values (64 MB) of one ensemble pass over a tau group; a split
# pass's caller briefly holds a worker's block twice (the bytes received,
# then their copy into place)
_VALUE_BUDGET = 8 * 2**20
MC_GRID_POINTS = 128  # frequency points of ``mc_default_grid``


@dataclass(frozen=True)
class EnsembleConfig:
    """Disorder-ensemble configuration.

    ``t_bar <= 0.05`` keeps the diffuse-regime reading (T-bar << 1); larger
    values are accepted since every estimate here is t_bar-normalized.  The
    model's scale is finite: at infinite scale every frequency shares one
    draw, and a theta = pi state reads 0.025 +- 0.0004 at tau = 0, where
    the cw rate is 0.  The seed is a Philox key, in [0, 2**128), and
    ``n_realizations`` lies in [2, ``np.iinfo(np.intp).max``].
    """

    grid: FrequencyGrid
    model: CorrelationModel
    t_bar: float = 0.01
    n_realizations: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.t_bar <= 1.0:
            raise ValueError("t_bar must be in (0, 1]")
        most = np.iinfo(np.intp).max
        if not 2 <= self.n_realizations <= most:
            raise ValueError(f"need at least 2 realizations, at most {most}, got {self.n_realizations}")
        if not 0 <= self.seed < 2**128:
            raise ValueError(f"seed must lie in [0, 2**128), got {self.seed}")
        if math.isinf(_model_scale(self.model)):
            raise ValueError("a Monte Carlo ensemble needs a finite model scale; the cw limit has none")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n: int


class RateRelation(NamedTuple):
    p2: float
    c_ij: float


@lru_cache(maxsize=32)
def _factor(grid: FrequencyGrid, model: CorrelationModel, t_bar: float) -> np.ndarray:
    """The lower covariance factor the draws multiply by, real when its
    imaginary part is exactly 0 (Model I) so that ``_draw_block`` can use
    real products."""
    L = covariance_factor(grid, model, t_bar).lower_factor
    return L if L.imag.any() else np.ascontiguousarray(L.real)


def mc_default_grid(state: StateSpec, model: CorrelationModel) -> FrequencyGrid:
    """Grid of ``MC_GRID_POINTS`` points sized for the estimator, not the
    amplitude: it must cover the state's spectrum, resolve the kernel width
    (spacing <= Omega/3 where affordable) and keep the sinc oscillations
    sampled."""
    scale = _model_scale(model)
    if isinstance(state, (FockState, CoherentState)):
        delta = state.delta
        cover = 8.0 * delta
        half = max(cover, min(8.0 * scale, (MC_GRID_POINTS - 1) * scale / 6.0, 25.0 * delta))
        return FrequencyGrid(state.omega_bar, half, MC_GRID_POINTS)
    eta_m = abs(state.crystal.eta_minus)
    cover = 6.0 * state.pump.sigma + 1.0 / eta_m
    half = max(cover, min(8.0 * scale, (MC_GRID_POINTS - 1) * scale / 6.0, 32.0 / eta_m))
    return FrequencyGrid(state.pump.omega_bar, half, MC_GRID_POINTS)


class _Workspace:
    """The buffers of one process's run of an ensemble pass, allocated once
    and reused by every chunk of the run, so a process faults its pages in
    once rather than once per chunk.

    Each buffer is flat and holds one complex (grid.n, chunk) array; a
    chunk of c realizations works on C-contiguous prefix views (``_view``),
    so every ``out=`` product is the BLAS call an allocating product makes,
    with the same bits.  ``t[s]`` holds stream s's transmissions.  The
    scratch buffers change roles where lifetimes do not overlap: ``a`` holds
    the normals of a draw, then ``m_direct p`` and ``g_t u``; ``b`` the
    draw's product (or its complex ``u``), then the estimators' ``u``;
    ``c`` the two ``|t|^2`` of the direct term, then the second mode's ``u``.
    """

    def __init__(self, n: int, modes: int, chunk: int):
        size = 2 * n * chunk  # float64 values of one complex (n, chunk) array
        self.t = [np.empty(size) for _ in range(2 * modes)]
        self.a, self.b, self.c = np.empty(size), np.empty(size), np.empty(size)


def _view(buf: np.ndarray, shape: Tuple[int, int], dtype=float) -> np.ndarray:
    """A C-contiguous ``shape`` array on the front of the flat float buffer ``buf``."""
    return buf.view(dtype)[: shape[0] * shape[1]].reshape(shape)


def _abs2(t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.abs(t) ** 2`` into ``out``."""
    np.abs(t, out=out)
    return np.square(out, out=out)


def _draw_block(L: np.ndarray, seed: int, stream_id: int, realizations: range, ws: _Workspace) -> np.ndarray:
    """Correlated complex Gaussian draws ``L u`` into ``ws.t[stream_id]``,
    one column per realization.

    Realization r takes one call of 2n normals (sqrt 2 times the real
    parts of ``u``, then its imaginary parts) from the Philox stream reset
    to counter ``[0, 0, stream_id, r]``.  A real ``L`` multiplies the two
    halves in two real products, which give the same bits as the complex
    product of ``L + 0j``.
    """
    n, chunk = L.shape[0], len(realizations)
    bitgen = Philox(key=seed)
    state = bitgen.state
    g = Generator(bitgen)
    z = _view(ws.a, (chunk, 2 * n))
    for row, r in zip(z, realizations):
        state["state"]["counter"] = [0, 0, stream_id, r]
        bitgen.state = state
        g.standard_normal(out=row)
    z *= 1.0 / math.sqrt(2.0)  # what dividing (a + ib) by sqrt 2 does to a and to b
    t = _view(ws.t[stream_id], (n, chunk), complex)
    if L.dtype.kind == "c":
        u = _view(ws.b, (chunk, n), complex)
        u.real, u.imag = z[:, :n], z[:, n:]
        return np.matmul(L, u.T, out=t)
    prod = _view(ws.b, (n, chunk))
    t.real = np.matmul(L, z[:, :n].T, out=prod)
    t.imag = np.matmul(L, z[:, n:].T, out=prod)
    return t


def sample_transmission(
    cfg: EnsembleConfig, mode_count: int, realization_index: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Transmission vectors (t_o, t_e), each of shape (mode_count, grid.n).

    Deterministic in (seed, realization_index, mode index); every vector is
    an independent draw with covariance ``t_bar * C(w_m - w_n)``.
    """
    ws = _Workspace(cfg.grid.n, mode_count, 1)
    draws = _draws(cfg, ws, range(realization_index, realization_index + 1))
    return np.array([o[:, 0] for o, _ in draws]), np.array([e[:, 0] for _, e in draws])


def _draws(cfg: EnsembleConfig, ws: _Workspace, block: range) -> List[Tuple[np.ndarray, np.ndarray]]:
    """``(t_o, t_e)`` of each of the workspace's output modes, each
    (grid.n, len(block)) and valid until the next draw into ``ws``."""
    L = _factor(cfg.grid, cfg.model, cfg.t_bar)
    return [
        (_draw_block(L, cfg.seed, s, block, ws), _draw_block(L, cfg.seed, s + 1, block, ws))
        for s in range(0, len(ws.t), 2)
    ]


def _usable_cpus() -> int:
    """CPUs an ensemble pass may fork workers onto: those of this process's
    affinity mask, or 1 where a fork is unsafe (the process runs more than
    one OS thread) or the platform cannot tell (no affinity API or no
    ``/proc/self/task``)."""
    try:
        cpus = len(os.sched_getaffinity(0))
        threads = len(os.listdir("/proc/self/task"))
    except (AttributeError, OSError):
        return 1
    return cpus if threads == 1 else 1


def _runs(n_realizations: int) -> List[List[range]]:
    """The chunks of ``_CHUNK`` realizations in contiguous runs, one run
    per process of the pass, each of at least ``_WORKER_CHUNKS`` chunks."""
    chunks = [range(start, min(start + _CHUNK, n_realizations)) for start in range(0, n_realizations, _CHUNK)]
    most = len(chunks) // _WORKER_CHUNKS
    workers = min(_usable_cpus(), most) if most > 1 else 1
    cuts = [len(chunks) * k // workers for k in range(workers + 1)]
    return [chunks[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


def _fill(
    out: np.ndarray, cfg: EnsembleConfig, modes: int, per_block: Callable[..., np.ndarray], run: List[range]
) -> np.ndarray:
    """``out`` (rows, realizations of ``run``) from ``per_block`` over the
    run's contiguous chunks, all in one workspace."""
    ws = _Workspace(cfg.grid.n, modes, len(run[0]))
    first = run[0].start
    for block in run:
        out[:, block.start - first : block.stop - first] = per_block(ws, *_draws(cfg, ws, block))
    return out


def _worker(send, fill: Callable[..., np.ndarray], rows: int, run: List[range]) -> None:
    """A forked worker's body: sends ``None`` and the bytes of the run's
    values, or the exception that ``fill`` raised."""
    with send:
        try:
            values = fill(np.empty((rows, run[-1].stop - run[0].start)), run)
        except Exception as exc:
            send.send(exc)
        else:
            send.send(None)
            send.send_bytes(values)


def _start(ctx, fill: Callable[..., np.ndarray], rows: int, run: List[range]):
    """A worker forked for ``run``, and the read end of its pipe."""
    receive, send = ctx.Pipe(duplex=False)
    with send:  # the worker holds the only write end: EOF if it dies
        try:
            proc = ctx.Process(target=_worker, args=(send, fill, rows, run))
            proc.start()
        except BaseException:
            receive.close()
            raise
    return proc, receive


def _split(values: np.ndarray, runs: List[List[range]], fill: Callable[..., np.ndarray]) -> None:
    """``values`` run by run through ``fill(out, run)``: the first run in
    this process, each other run in a worker forked for it, whose values
    come back through a pipe.  Where a worker or its pipe cannot be had
    (``OSError``: no process, memory or file descriptor left), this
    process runs that run and the ones after it.  Every worker is joined,
    or terminated and joined, before this returns or raises."""
    import multiprocessing  # a split pays for the import, a serial pass does not

    ctx = multiprocessing.get_context("fork")
    workers, local = [], runs[:1]
    try:
        for k, run in enumerate(runs[1:], 1):
            try:
                workers.append((*_start(ctx, fill, values.shape[0], run), run))
            except OSError:
                local = local + runs[k:]
                break
        for run in local:
            fill(values[:, run[0].start : run[-1].stop], run)
        for proc, receive, run in workers:
            try:
                error = receive.recv()
                block = receive.recv_bytes() if error is None else None
            except EOFError:
                proc.join()
                raise TpspeckleError(
                    f"a Monte Carlo worker exited with code {proc.exitcode} before sending its values"
                ) from None
            if error is not None:
                raise error
            values[:, run[0].start : run[-1].stop] = np.frombuffer(block).reshape(values.shape[0], -1)
            proc.join()
    finally:
        for proc, receive, _ in workers:
            receive.close()
            if proc.exitcode is None:
                proc.terminate()
            proc.join()


def _ensemble(
    cfg: EnsembleConfig, modes: int, per_block: Callable[..., np.ndarray], rows: int = 1
) -> np.ndarray:
    """``rows`` values per realization, shape (rows, n_realizations):
    ``per_block(workspace, (t_o, t_e) of mode 0, ...)`` over chunks of
    ``_CHUNK`` realizations, each array of shape (grid.n, chunk); each run
    of chunks (``_runs``) in one workspace and one process."""
    values = np.empty((rows, cfg.n_realizations))
    # factored before the thread probe (a BLAS may start its threads in
    # the factorisation) and before any fork, so every worker inherits it
    _factor(cfg.grid, cfg.model, cfg.t_bar)
    runs = _runs(cfg.n_realizations)
    if len(runs) == 1:
        _fill(values, cfg, modes, per_block, runs[0])
    else:
        _split(values, runs, lambda out, run: _fill(out, cfg, modes, per_block, run))
    return values


def _estimate(values: np.ndarray) -> McEstimate:
    """Mean and standard error of the values."""
    n = values.size
    return McEstimate(
        mean=float(values.mean()),
        std_error=float(values.std(ddof=1) / math.sqrt(n)),
        n=n,
    )


class _Operators(NamedTuple):  # what the estimators read; None where it does not apply
    a2w: Optional[np.ndarray] = None
    m_direct: Optional[np.ndarray] = None
    g_t: Optional[np.ndarray] = None


def _operators(state: StateSpec, grid: FrequencyGrid) -> _Operators:
    """``a2w`` = a^2 w, or ``m_direct`` = |B|^2 w_m w_n and ``g_t`` =
    B(w_n, w_m) B*(w_m, w_n) w_m w_n, real when its imaginary part is
    exactly 0 (the entangled and Fock states).

    The direct kernel uses the on-grid norm (its disorder mean is then
    exactly 2 t_bar^2).  For the sinc-tailed states the exchange kernel is
    rescaled by (grid norm)/(continuum norm): with Y = |eta_-| half_width,
    the grid clips about 1/(pi Y) of the |B|^2 mass, which the exchange
    integral, damped by |C|^2, does not lose, and without the rescaling
    the estimator would carry a systematic +1/(pi Y) relative bias on R - 1.
    """
    wts = grid.trapezoid_weights()
    if isinstance(state, CoherentState):
        env = grid_envelope(state, grid)
        return _Operators(a2w=env * env * wts)
    b = grid_amplitude_matrix(state, grid)
    ww = np.outer(wts, wts)
    m_direct = (np.abs(b) ** 2) * ww
    g_exch = (b * np.conj(b.T)) * ww
    if isinstance(state, (EntangledState, SymmetrizedState)):
        g_exch = g_exch * (_grid_mass(state, grid) / _continuum_norm(state))
    g_t = g_exch.T.copy()
    return _Operators(m_direct=m_direct, g_t=g_t if g_t.imag.any() else g_t.real.copy())


def _pair_estimator(ops: _Operators, grid: FrequencyGrid, taus: Sequence[float]):
    """Per-realization <:n_i n_j:> (before the t_bar norm) at every tau, shape
    (len(taus), chunk), as a function of the workspace and the draws
    ``(t_o, t_e)`` of modes i and j; pass one mode twice for i = j."""
    if ops.a2w is not None:
        a2w = ops.a2w
        phases = [np.exp(-1j * grid.axis() * tau)[:, None] for tau in taus]

        def intensity(ws, mode, phase):  # a2w @ |t_e phase + t_o|^2
            t_o, t_e = mode
            field = np.multiply(t_e, phase, out=_view(ws.b, t_o.shape, complex))
            return a2w @ _abs2(np.add(field, t_o, out=field), _view(ws.c, t_o.shape))

        def coherent_pair(ws, mode_i, mode_j):
            out = np.empty((len(phases), mode_i[0].shape[1]))
            for row, phase in zip(out, phases):
                i_i = intensity(ws, mode_i, phase)
                row[:] = i_i * (i_i if mode_j is mode_i else intensity(ws, mode_j, phase))
            return out

        return coherent_pair

    m_direct, g_t = ops.m_direct, ops.g_t
    phases = [np.exp(1j * grid.axis() * tau)[:, None] for tau in taus]

    def exchange(u, out):  # g_t @ u; a real g_t gives the bits of the complex product with g_t + 0j
        if g_t.dtype.kind == "c":
            return np.matmul(g_t, u, out=out)
        np.matmul(g_t, u.view(float), out=out.view(float))
        return out

    def phased(phase, t_e, t_o, out):  # phase * conj(t_e) * t_o
        np.conjugate(t_e, out=out)
        np.multiply(phase, out, out=out)
        return np.multiply(out, t_o, out=out)

    def pair(ws, mode_i, mode_j):
        same = mode_j is mode_i
        (t_oi, t_ei), (t_oj, t_ej) = mode_i, mode_j
        shape = t_oi.shape
        p, q, m_p = _view(ws.c, shape), _view(ws.c[t_oi.size :], shape), _view(ws.a, shape)
        p_oi, p_ej = _abs2(t_oi, p), _abs2(t_ej, q)
        direct = np.einsum("mc,mc->c", p_oi, np.matmul(m_direct, p_ej, out=m_p))
        p_ei, p_oj = (p_ej, p_oi) if same else (_abs2(t_ei, p), _abs2(t_oj, q))
        direct += np.einsum("mc,mc->c", p_ei, np.matmul(m_direct, p_oj, out=m_p))
        # the direct term is done: ws.a and ws.c take the exchange term
        u_i, g_u = _view(ws.b, shape, complex), _view(ws.a, shape, complex)
        u_j = u_i if same else _view(ws.c, shape, complex)
        out = np.empty((len(phases), direct.size))
        for row, phase in zip(out, phases):
            exchange(phased(phase, t_ei, t_oi, u_i), g_u)
            if not same:
                phased(phase, t_ej, t_oj, u_j)
            np.conjugate(u_j, out=u_j)
            row[:] = direct + 2.0 * np.real(np.einsum("mc,mc->c", u_j, g_u))
        return out

    return pair


def mc_correlator_batch(
    state: StateSpec,
    cfg: EnsembleConfig,
    taus: Sequence[float],
    *,
    cross_mode: bool = False,
) -> List[McEstimate]:
    """Coincidence rates at every tau from one draw of the ensemble.

    Same-mode R(tau) by default; ``cross_mode=True`` gives R_{ij}, i != j,
    from a two-mode run (parameter-free targets: 2 for the two-photon
    states, 4 for coherent).  Each estimate equals the one-tau call at
    the same seed.  A tau that is not finite raises ``ValueError`` before
    anything is drawn.
    """
    taus = [float(tau) for tau in taus]
    if not all(math.isfinite(tau) for tau in taus):
        raise ValueError("mc_correlator needs finite taus")
    # delta_ij = 0 across modes: no indistinguishability factor
    norm = cfg.t_bar**2 if cross_mode else 2.0 * cfg.t_bar**2
    group_size = max(1, _VALUE_BUDGET // cfg.n_realizations)
    ops = _operators(state, cfg.grid)
    estimates = []
    for lo in range(0, len(taus), group_size):
        group = taus[lo : lo + group_size]
        pair = _pair_estimator(ops, cfg.grid, group)
        if cross_mode:
            values = _ensemble(cfg, 2, lambda ws, mode_i, mode_j: pair(ws, mode_i, mode_j) / norm, len(group))
        else:
            values = _ensemble(cfg, 1, lambda ws, mode: pair(ws, mode, mode) / norm, len(group))
        estimates.extend(_estimate(row) for row in values)
    return estimates


def mc_correlator(state: StateSpec, cfg: EnsembleConfig, tau: float) -> McEstimate:
    """Same-mode coincidence rate R(tau): ``mc_correlator_batch`` at one tau."""
    return mc_correlator_batch(state, cfg, [tau])[0]


def mc_mean_photocount(cfg: EnsembleConfig, state: StateSpec) -> McEstimate:
    """Monte Carlo estimate of the t_bar-normalized mean photocount n/t_bar.

    Converges to 2 for every supported state.
    """
    # g_t goes unread: 0.3 ms of a 550 ms run at n = 128, 10^4 realizations
    ops = _operators(state, cfg.grid)
    if ops.a2w is not None:
        wo = we = ops.a2w
    else:  # the weighted marginals of |B|^2
        wo, we = ops.m_direct.sum(axis=1), ops.m_direct.sum(axis=0)

    def photocount(ws, mode):
        t_o, t_e = mode
        p = _view(ws.c, t_o.shape)  # wo @ |t_o|^2 is formed before |t_e|^2 takes p
        return (wo @ _abs2(t_o, p) + we @ _abs2(t_e, p)) / cfg.t_bar

    return _estimate(_ensemble(cfg, 1, photocount)[0])


def rate_correlation_relation(normal_ordered: float, mean_n: float, same_mode: bool) -> RateRelation:
    """P2 and C_ij from the normally ordered correlator.

    P2 = <:n_i n_j:> / (1 + delta_ij);  C_ij = <:n_i n_j:> + delta_ij <n_i>.
    """
    if normal_ordered < 0 or mean_n < 0:
        raise ValueError("inputs must be >= 0")
    if same_mode:
        return RateRelation(p2=0.5 * normal_ordered, c_ij=normal_ordered + mean_n)
    return RateRelation(p2=normal_ordered, c_ij=normal_ordered)


@dataclass(frozen=True)
class BeamSplitterReport:
    p1: float
    p2_same: float
    p2_cross: float
    normal_ordered_same: float
    normal_ordered_cross: float
    consistent: bool


def beam_splitter_check() -> BeamSplitterReport:
    """Two independent photons on a symmetric beam splitter, by enumeration.

    Demonstrates the 1/(1+delta_ij) factor: the normally ordered moments
    are all 1/2, yet P2(1,1) = 1/4 while P2(1,2) = 1/2.
    """
    outcomes = [(1, 1), (1, 2), (2, 1), (2, 2)]
    prob = 0.25
    p2_same = sum(prob for a, b in outcomes if a == b == 1)
    p2_cross = sum(prob for a, b in outcomes if {a, b} == {1, 2})
    n1_moments = {}
    for k in (1, 2):
        n1_moments[k] = sum(prob * sum(1 for x in o if x == 1) ** k for o in outcomes)
    mean_n1 = n1_moments[1]
    sq_same = n1_moments[2] - mean_n1  # <:n1^2:> = <n1(n1-1)>
    sq_cross = sum(
        prob * sum(1 for x in o if x == 1) * sum(1 for x in o if x == 2) for o in outcomes
    )
    rel_same = rate_correlation_relation(sq_same, mean_n1, same_mode=True)
    rel_cross = rate_correlation_relation(sq_cross, mean_n1, same_mode=False)
    consistent = (
        rel_same.p2 == p2_same == 0.25
        and rel_cross.p2 == p2_cross == 0.5
        and sq_same == sq_cross == 0.5
    )
    return BeamSplitterReport(
        p1=0.5,
        p2_same=p2_same,
        p2_cross=p2_cross,
        normal_ordered_same=sq_same,
        normal_ordered_cross=sq_cross,
        consistent=consistent,
    )
