"""Arbitrary-precision (mpmath) oracle for the benchmark's stored reference.

Every number here is computed from the paper's defining equations at
50 significant digits, independently of relaygain's solvers:

* the fair share beta solves kappa*b*ln(1 + h1*eps/b) = (1-b)*ln(1 + h23*k*eps/(1-b)),
  kappa = k for NCP and k+1 for CP;
* the minimal TERN for base rate R is where the two binding user
  constraints cross: eps1(b) = b*expm1(R/b)/h1 equals
  eps2(b) = (1-b)*expm1(w*R/(1-b))/(k*h23), w = k (NCP) or k+1 (CP);
* a resource slot beta solves beta*ln(1 + c/beta) = target, c = h*eps_user;
* the bound pairs and limits are the closed forms of the paper.
"""

from __future__ import annotations

import mpmath as mp

mp.mp.dps = 50
ONE = mp.mpf(1)
TINY = mp.mpf("1e-45")


def _root(f, lo, hi):
    """Root of an increasing f on (lo, hi): Anderson-Bjorck, bisection as fallback."""
    try:
        x = mp.findroot(f, (lo, hi), solver="anderson")
        if lo < x < hi:
            return x
    except (ValueError, ZeroDivisionError):
        pass
    for _ in range(400):
        mid = (lo + hi) / 2
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= mp.mpf(10) ** (-mp.mp.dps + 3) * abs(hi):
            break
    return (lo + hi) / 2


def share(kappa, h1, h23, k, eps):
    """(beta, base_rate) of the fair split."""
    kappa, h1, h23, k, eps = map(mp.mpf, (kappa, h1, h23, k, eps))

    def f(b):
        return kappa * b * mp.log1p(h1 * eps / b) - (1 - b) * mp.log1p(h23 * k * eps / (1 - b))

    beta = _root(f, TINY, ONE - TINY)
    return beta, beta * mp.log1p(h1 * eps / beta)


def allocations(h12, h13, h23, eps, k):
    """{'ncp': (beta, rate), 'cp': (beta, rate), 'gain': cp/ncp}."""
    ncp = share(k, h13, h23, k, eps)
    cp = share(mp.mpf(k) + 1, h12, h23, k, eps)
    return {"ncp": ncp, "cp": cp, "gain": cp[1] / ncp[1]}


def min_tern(h1, h23, k, w, rate):
    """(eps_min, beta) where both users' constraints bind."""
    h1, h23, k, w, rate = map(mp.mpf, (h1, h23, k, w, rate))

    def log_eps1(b):
        return mp.log(b) + mp.log(mp.expm1(rate / b)) - mp.log(h1)

    def log_eps2(b):
        return mp.log(1 - b) + mp.log(mp.expm1(w * rate / (1 - b))) - mp.log(k * h23)

    beta = _root(lambda b: log_eps2(b) - log_eps1(b), TINY, ONE - TINY)
    return mp.exp(log_eps1(beta)), beta


def min_tern_pair(h12, h13, h23, k, rate):
    ncp = min_tern(h13, h23, k, k, rate)
    cp = min_tern(h12, h23, k, mp.mpf(k) + 1, rate)
    return {"ncp": ncp, "cp": cp, "gain": ncp[0] / cp[0]}


def slot(h, eps_user, target):
    """beta in (0, inf) with beta*ln(1 + h*eps_user/beta) = target < h*eps_user."""
    chord = mp.mpf(h) * mp.mpf(eps_user)
    target = mp.mpf(target)

    def f(u):
        b = mp.exp(u)
        return b * mp.log1p(chord / b) - target

    lo, hi = mp.log(target) - 10, mp.log(max(target, ONE)) + 10
    while f(lo) >= 0:
        lo -= 20
    while f(hi) <= 0:
        hi += 20
    return mp.exp(_root(f, lo, hi))


def resource(h_first, h23, eps, k, rate, cp: bool):
    """(beta1, beta2, total) for one protocol."""
    k, eps, rate = map(mp.mpf, (k, eps, rate))
    b1 = slot(h_first, eps, rate)
    b2 = slot(h23, k * eps, (k + 1 if cp else k) * rate)
    return b1, b2, b1 + b2


def score(h_sd, h_sr, h_rd, k):
    k = mp.mpf(k)
    return min(mp.mpf(h_sr), mp.mpf(h_rd) * k / (k + 1)) / mp.mpf(h_sd)


def select_rate(h_sd, candidates, eps, k):
    """Rate-mode decision: rank by score (ties by id), confirm the top candidate.

    Returns {"protocol", "relay_id", "criterion_value", "exact_gain"}.
    """
    if not candidates:
        return {"protocol": "NCP", "relay_id": None, "criterion_value": mp.mpf(0),
                "exact_gain": None}
    ranked = sorted(candidates, key=lambda c: (-score(h_sd, c[1], c[2], k), c[0]))
    cid, h_sr, h_rd = ranked[0]
    gain = allocations(h_sr, h_sd, h_rd, eps, k)["gain"]
    cp = gain > 1
    return {"protocol": "CP" if cp else "NCP", "relay_id": cid if cp else None,
            "criterion_value": score(h_sd, h_sr, h_rd, k), "exact_gain": gain}


def select_resource(h_sd, candidates, eps, k, rate):
    """Resource-mode decision: least total usage over feasible options, or None."""
    eps, k, rate = map(mp.mpf, (eps, k, rate))
    options = []
    if not candidates:
        if rate < eps * h_sd:
            options.append((slot(h_sd, eps, rate), 0, "", "NCP", None))
    for cid, h_sr, h_rd in sorted(candidates, key=lambda c: c[0]):
        if rate < eps * min(mp.mpf(h_sd), mp.mpf(h_rd)):
            total = slot(h_sd, eps, rate) + slot(h_rd, k * eps, k * rate)
            options.append((total, 0, cid, "NCP", None))
        if rate < eps * min(mp.mpf(h_sr), mp.mpf(h_rd) * k / (k + 1)):
            total = slot(h_sr, eps, rate) + slot(h_rd, k * eps, (k + 1) * rate)
            options.append((total, 1, cid, "CP", cid))
    if not options:
        return None
    total, _, _, protocol, relay = min(options, key=lambda o: o[:3])
    return {"protocol": protocol, "relay_id": relay, "criterion_value": total,
            "exact_gain": None}


# ------------------------------------------------------------ closed forms

def _tangent_gap(c):
    return mp.log1p(c) - c / (1 + c)


def _tangent(h1, h23, eps, k, kappa):
    m = kappa + 1
    a, b = m * h1 * eps, h23 * k * eps * m / kappa
    big_a, big_b = mp.log1p(a), mp.log1p(b)
    gap_a, gap_b = _tangent_gap(a), _tangent_gap(b)
    den = kappa * gap_a + gap_b
    return 1 / m + kappa * (big_b - big_a) / (m * den), (big_a * gap_b + kappa * big_b * gap_a) / (m * den)


def _chord(h1, h23, eps, k, kappa):
    x = mp.log1p(h1 * eps)
    y = mp.log1p(k * h23 * eps) / kappa
    return x * y / (x + y)


def _parabola(h_a, h_b, eps, kappa):
    quad = h_b - h_a
    lin = eps * (h_a * h_a + kappa * h_b * h_b) / 2 + h_a - h_b
    const = -eps * h_a * h_a / 2
    if abs(quad) <= mp.mpf("1e-12") * max(h_a, h_b):
        beta = -const / lin
    else:
        disc = mp.sqrt(max(lin * lin - 4 * quad * const, 0))
        q = -(lin + mp.sign(lin) * disc) / 2
        roots = [q / quad] + ([const / q] if q != 0 else [])
        inside = [r for r in roots if 0 < r <= 1]
        beta = inside[0] if inside else min(ONE, max(roots[0], mp.mpf("1e-300")))
    return beta, h_a * eps - h_a * h_a * eps * eps / (2 * beta)


def _unit(beta):
    return beta if 0 < beta < 1 else None


def bound_pairs(h12, h13, h23, eps, k):
    """{name: (lower, upper, beta_at_bound or None)} for the four constructions."""
    h12, h13, h23, eps, k = map(mp.mpf, (h12, h13, h23, eps, k))
    out = {}
    for name, h1, kappa in (("ncp", h13, k), ("cp", h12, k + 1)):
        beta, upper = _tangent(h1, h23, eps, k, kappa)
        out[f"{name}_high_tern"] = (_chord(h1, h23, eps, k, kappa), upper, _unit(beta))
    beta, value = _parabola(h13, h23, eps, k)
    out["ncp_low_tern"] = (max(0, value), min(mp.log1p(h13 * eps), mp.log1p(k * h23 * eps) / k),
                           _unit(beta))
    beta, value = _parabola(h12, k * h23 / (k + 1), eps, k + 1)
    out["cp_low_tern"] = (max(0, value), min(mp.log1p(h12 * eps), mp.log1p(k * h23 * eps) / (k + 1)),
                          _unit(beta))
    return out


def low_tern_gain_limit(h12, h13, h23, k):
    h12, h13, h23, k = map(mp.mpf, (h12, h13, h23, k))
    return min(h12, k / (k + 1) * h23) / min(h13, h23)


def high_tern_gain_limit(k):
    k = mp.mpf(k)
    return (k + 1) / (k + 2)


def placement_gains(source, destination, relay, eta):
    def dist(a, b):
        return mp.sqrt((mp.mpf(a[0]) - b[0]) ** 2 + (mp.mpf(a[1]) - b[1]) ** 2)
    eta = mp.mpf(eta)
    return (dist(source, relay) ** -eta, dist(source, destination) ** -eta,
            dist(relay, destination) ** -eta)


def optimal_relay_location(k, eta):
    k, eta = mp.mpf(k), mp.mpf(eta)
    return 1 / (1 + (k / (k + 1)) ** (1 / eta))


def max_geometric_gain(k, eta):
    k, eta = mp.mpf(k), mp.mpf(eta)
    return (1 + (k / (k + 1)) ** (1 / eta)) ** eta
