"""Helpers the test modules share, among them the only 50-digit references.

share, min_tern and slot read only the problem's inputs, forming kappa and the
chords exactly in mpmath. share and min_tern bisect for a float estimate in the
log-odds t = ln(b/(1-b)), which keeps b and 1 - b to full relative precision,
and refine it by Newton steps in t; slot is the lower branch of Lambert's W
(Corless et al., Adv. Comput. Math. 5, 1996). Without mpmath their callers skip.
"""

import importlib.util
import math
from pathlib import Path

import pytest

from relaygain import Protocol
from relaygain.errors import RelayGainError
from relaygain.rootfind import _COUNTS


def _halves(lib, t):
    """(b, 1 - b) for the log-odds t, each to a few ulps, with lib = math or mpmath."""
    e = lib.exp(-abs(t))
    return (1 / (1 + e), e / (1 + e)) if t >= 0 else (e / (1 + e), 1 / (1 + e))


def _log_odds_root(mp, gap, newton, *coefficients):
    """(t, extra): the 50-digit log-odds where gap(lib, b, 1 - b, *coefficients),
    increasing in t, vanishes, by Newton steps until one moves t by at most 1e-45,
    from 64 float halvings of [-600, 600] with lib = math. newton(b, 1 - b) returns
    the step, gap over its derivative in t, and `extra`, what the caller keeps of it."""
    floats = [float(c) for c in coefficients]
    lo, hi = -600.0, 600.0
    assert gap(math, *_halves(math, lo), *floats) < 0.0 < gap(math, *_halves(math, hi), *floats)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if gap(math, *_halves(math, mid), *floats) < 0.0 else (lo, mid)
    t = mp.mpf(lo)
    for _ in range(8):
        step, extra = newton(*_halves(mp, t))
        t -= step
        if abs(step) <= 1e-45:
            return t, extra
    raise AssertionError(f"no Newton convergence from t = {lo!r}")


def share(protocol, h_first, h23, eps, k):
    """(beta, base_rate, band) of the fair share at 50 digits: the root of
    kappa*b*ln(1 + h_first*eps/b) = (1-b)*ln(1 + h23*k*eps/(1-b)), kappa = k
    for NCP and k + 1 for CP, and user 1's rate there.

    band bounds how far the root of the float residual may sit from beta: each of
    the residual's two terms T carries a few rounding errors, so band is
    3 * 2**-52 * (T1 + T2) / residual'(beta).
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        eps, k = mp.mpf(eps), mp.mpf(k)
        kappa = k if protocol is Protocol.NCP else k + 1
        c1, c2 = mp.mpf(h_first) * eps, mp.mpf(h23) * k * eps

        def gap(lib, b, ob, kappa, c1, c2):
            return kappa * b * lib.log1p(c1 / b) - ob * lib.log1p(c2 / ob)

        def newton(b, ob):
            log1, log2 = mp.log1p(c1 / b), mp.log1p(c2 / ob)
            t1, t2 = kappa * b * log1, ob * log2
            slope = kappa * (log1 - c1 / (b + c1)) + log2 - c2 / (ob + c2)
            return (t1 - t2) / (slope * b * ob), (t1, t2, slope)

        # the terms come from the last step's start, within 1e-45 of the root
        t, (t1, t2, slope) = _log_odds_root(mp, gap, newton, kappa, c1, c2)
        beta = _halves(mp, t)[0]
        return beta, beta * mp.log1p(c1 / beta), 3 * mp.mpf(2) ** -52 * (t1 + t2) / slope


def min_tern(protocol, h_first, h23, k, rate):
    """(ln eps_min, beta) at 50 digits, where both users' constraints bind:
    b*expm1(R/b)/h_first = (1-b)*expm1(w*R/(1-b))/(k*h23), w = k (NCP) or k+1 (CP)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        k, rate = mp.mpf(k), mp.mpf(rate)
        w = k if protocol is Protocol.NCP else k + 1
        problem = rate, w * rate, mp.mpf(h_first), k * mp.mpf(h23)

        def log_eps(lib, b, rate, h):
            # ln(b*expm1(x)/h), x = rate/b, with ln expm1(x) = x + ln(-expm1(-x))
            x = rate / b
            return lib.log(b) + x + lib.log(-lib.expm1(-x)) - lib.log(h)

        def gap(lib, b, ob, rate1, rate2, h1, h2):
            return log_eps(lib, ob, rate2, h2) - log_eps(lib, b, rate1, h1)

        def newton(b, ob):
            x1, x2 = rate / b, w * rate / ob
            slope = b * x2 * (1 + 1 / mp.expm1(x2)) + ob * x1 * (1 + 1 / mp.expm1(x1)) - 1
            return gap(mp, b, ob, *problem) / slope, None

        beta = _halves(mp, _log_odds_root(mp, gap, newton, *problem)[0])[0]
        return log_eps(mp, beta, rate, h_first), beta


def slot(h, eps_user, target):
    """beta with beta*ln(1 + h*eps_user/beta) = target at 50 digits: beta = c/x,
    c = h*eps_user exactly, with x = -W_{-1}(-r e^{-r})/r - 1 the root of
    log1p(x) = r*x, r = target/c."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        chord = mp.mpf(h) * mp.mpf(eps_user)
        r = mp.mpf(target) / chord
        return chord / (-mp.lambertw(-r * mp.exp(-r), -1).real / r - 1)


def log_uniform(rng, log_lo, log_hi):
    """exp of a uniform draw from [log_lo, log_hi]."""
    return math.exp(rng.uniform(log_lo, log_hi))


def outcome(run):
    """(share as hex, or error class and message; solve and evaluation count deltas)."""
    solves, evals = _COUNTS.solves, _COUNTS.evals
    try:
        result = run().hex()
    except RelayGainError as exc:
        result = (type(exc), str(exc))
    return result, (_COUNTS.solves - solves, _COUNTS.evals - evals)


def bench_module(name):
    """bench/<name>.py, loaded as a module without putting bench on the path."""
    path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
