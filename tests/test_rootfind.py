import contextlib
import math

import pytest
from hypothesis import given, settings, strategies as st

import relaygain.allocation as allocation
import relaygain.energy as energy
import relaygain.rootfind as rootfind
from relaygain import Bracket, ValidationError, solve_monotone
from relaygain.errors import IterationLimitError, NaNResidualError, NoSignChangeError


def counted(f):
    """f with a count of its evaluations in .calls."""
    def g(x):
        g.calls += 1
        return f(x)
    g.calls = 0
    return g


# bisection of a bracket inside [-8, 8] reaches adjacent doubles within 1,100
# halvings, subnormals included; the solver halves once per 3 evaluations
MAX_ITER = 3 * 1100


def bisection_halvings(f, lo, hi):
    """Halvings plain bisection of [lo, hi] takes to adjacent doubles or a zero of f."""
    lo_negative = f(lo) < 0.0
    halvings, mid = 0, 0.5 * (lo + hi)
    while lo < mid < hi:
        halvings += 1
        f_mid = f(mid)
        if f_mid == 0.0:
            break
        if (f_mid < 0.0) is lo_negative:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return halvings


# Roots of high order, where secant steps stall and the bisection safeguard
# sets the pace; none reaches adjacent doubles in hundreds of evaluations.
SLOW = {
    "cube": lambda x: x ** 3,
    "fifth": lambda x: x ** 5,
    "cbrt": lambda x: math.copysign(abs(x) ** (1.0 / 3.0), x),
}
# Steep, convex and triple-root cases for the evaluation bound.
BOUND_CASES = {
    "steep": (lambda x: math.atan(1e4 * (x - 1.0 / 3.0)), 0.0, 1.0),
    "flat": (lambda x: math.expm1(30.0 * x) - 1.0, 0.0, 1.0),
    "cube": (SLOW["cube"], -1.0, 2.0),
}


def test_linear_root():
    f = lambda x: x - 0.5
    root = solve_monotone(f, Bracket.scan(f, 0.0, 1.0), MAX_ITER)
    assert abs(root - 0.5) <= 1e-12


def test_log_closed_form_inversion():
    f = lambda x: math.log1p(x) - 1.0
    root = solve_monotone(f, Bracket.scan(f, 0.0, 3.0), MAX_ITER)
    assert abs(root - (math.e - 1.0)) <= 1e-11


def test_cubic_through_zero():
    f = lambda x: x ** 3
    root = solve_monotone(f, Bracket.scan(f, -1.0, 2.0), MAX_ITER)
    assert abs(root) <= 1e-12


def test_root_stays_inside_bracket():
    f = lambda x: math.tanh(x - 0.3)
    bracket = Bracket.scan(f, -2.0, 5.0)
    root = solve_monotone(f, bracket, MAX_ITER)
    assert bracket.lo <= root <= bracket.hi


def test_no_sign_change_is_structured():
    f = lambda x: x + 10.0
    with pytest.raises(NoSignChangeError) as err:
        Bracket.scan(f, 0.0, 1.0)
    assert err.value.lo == 0.0 and err.value.hi == 1.0
    assert err.value.f_lo == 10.0


def test_iteration_limit_carries_last_bracket():
    f = lambda x: x ** 3 - 1.0 / 27.0
    with pytest.raises(IterationLimitError) as err:
        solve_monotone(f, Bracket.scan(f, 0.0, 1.0), max_iter=10)
    assert err.value.iterations == 10
    assert err.value.hi - err.value.lo <= 1.0 / 2 ** 3
    assert err.value.lo <= 1.0 / 3.0 <= err.value.hi


@pytest.mark.parametrize("lo, hi, max_iter, solves", [
    (0.0, 1.0, MAX_ITER, 1), (0.0, 1.0, 10, 1), (0.5, 1.0, MAX_ITER, 0)])
def test_counts_one_solve_and_every_evaluation(lo, hi, max_iter, solves):
    """Each solve, failed or not, adds one solve and every evaluation of f,
    the bracket's two included, to the counters; a failed scan adds nothing."""
    f = counted(lambda x: x ** 3 - 1.0 / 27.0)
    before = rootfind._COUNTS.solves, rootfind._COUNTS.evals
    with contextlib.suppress(IterationLimitError, NoSignChangeError):
        solve_monotone(f, Bracket.scan(f, lo, hi), max_iter)
    assert rootfind._COUNTS.solves - before[0] == solves
    assert rootfind._COUNTS.evals - before[1] == f.calls * solves


@pytest.mark.parametrize("n", [1, 5, 20, 40])
def test_halving_invariant(n):
    """After n evaluations the width is at most W * 2**-floor(n/3)."""
    for name, f in SLOW.items():
        with pytest.raises(IterationLimitError) as err:
            solve_monotone(f, Bracket.scan(f, -1.0, 2.0), max_iter=n)
        width = err.value.hi - err.value.lo
        assert width <= 3.0 / 2 ** (n // 3) * (1 + 1e-12), name


@pytest.mark.parametrize("name", sorted(BOUND_CASES))
def test_evaluation_bound(name):
    """Where bisection stops after m halvings, on adjacent doubles or an exact zero as the
    solver does, the solver needs at most 3*m evaluations. The cube takes 359 halvings,
    to where x**3 underflows to 0."""
    f, lo, hi = BOUND_CASES[name]
    halvings = bisection_halvings(f, lo, hi)
    g = counted(f)
    bracket = Bracket.scan(g, lo, hi)
    g.calls = 0
    root = solve_monotone(g, bracket, max_iter=3 * halvings)
    assert g.calls <= 3 * halvings
    assert bracket.lo <= root <= bracket.hi
    assert f(root - 1e-12) <= 0.0 <= f(root + 1e-12)


@pytest.mark.parametrize("f, lo, hi", [
    (lambda x: x * x - 2.0, 1.0, 2.0),
    (lambda x: math.log(x) - 1.0, 1.0, 4.0),
    (lambda x: math.tanh(x - 0.3), -2.0, 5.0),
    (lambda x: math.expm1(x) - 1e-300, -1.0, 1.0),
], ids=["square", "log", "tanh", "expm1"])
def test_stops_at_adjacent_doubles(f, lo, hi):
    root = solve_monotone(f, Bracket.scan(f, lo, hi), MAX_ITER)
    below, above = math.nextafter(root, -math.inf), math.nextafter(root, math.inf)
    assert f(root) == 0.0 or f(below) < 0.0 < f(above)


@pytest.mark.parametrize("f, lo, hi, root", [
    (lambda x: 1.0 if x > 0.3 else -1e-300, 0.3, 1.0, 0.3),
    (lambda x: -1.0 if x < 0.7 else 1e-300, 0.0, 0.7, math.nextafter(0.7, 0.0)),
], ids=["lo_end", "hi_end"])
def test_secant_on_an_end_steps_one_double_inside(f, lo, hi, root):
    """The secant rounds onto the end whose value is tiny; bisection would take ~50 steps."""
    g = counted(f)
    bracket = Bracket.scan(g, lo, hi)
    g.calls = 0
    found = solve_monotone(g, bracket, MAX_ITER)
    assert g.calls == 1
    assert found in (root, math.nextafter(root, math.inf))


def test_bracket_carries_end_values():
    f = counted(lambda x: x - 0.25)
    bracket = Bracket.scan(f, 0.0, 1.0)
    assert (bracket.f_lo, bracket.f_hi, f.calls) == (-0.25, 0.75, 2)


def test_nan_endpoint_is_structured():
    f = lambda x: x - 0.5 if x > 0.0 else math.nan
    with pytest.raises(NaNResidualError) as err:
        Bracket.scan(f, 0.0, 1.0)
    assert err.value.x == 0.0


def test_nan_inside_bracket_is_structured():
    f = lambda x: math.nan if 0.2 < x < 0.8 else x - 0.5
    with pytest.raises(NaNResidualError) as err:
        solve_monotone(f, Bracket.scan(f, 0.0, 1.0), MAX_ITER)
    assert 0.2 < err.value.x < 0.8


def test_determinism_bitwise():
    f = lambda x: math.expm1(x) - 0.7
    bracket = Bracket.scan(f, -1.0, 1.0)
    first = solve_monotone(f, bracket, MAX_ITER)
    second = solve_monotone(f, bracket, MAX_ITER)
    assert first == second and math.copysign(1.0, first) == math.copysign(1.0, second)


def test_root_at_endpoint_returns_endpoint():
    f = lambda x: x
    assert solve_monotone(f, Bracket.scan(f, 0.0, 1.0), MAX_ITER) == 0.0
    g = lambda x: x - 1.0
    assert solve_monotone(g, Bracket.scan(g, 0.0, 1.0), MAX_ITER) == 1.0


def test_adjacent_ends_return_before_any_evaluation():
    """The midpoint of adjacent doubles rounds onto an end: the solve returns it
    without calling f and counts only its bracket's two evaluations."""
    before = rootfind._COUNTS.solves, rootfind._COUNTS.evals
    bracket = Bracket(1.0, math.nextafter(1.0, 2.0), -1e-17, 2e-16)
    assert solve_monotone(lambda x: pytest.fail("f was called"), bracket, MAX_ITER) == 1.0
    assert (rootfind._COUNTS.solves - before[0], rootfind._COUNTS.evals - before[1]) == (1, 2)


def test_max_iter_below_one_rejected():
    f = lambda x: x - 0.5
    with pytest.raises(ValidationError, match="max_iter must be >= 1, got 0"):
        solve_monotone(f, Bracket.scan(f, 0.0, 1.0), max_iter=0)


def test_inline_limits_lie_beyond_bisection():
    """No inline solve reaches its limit. Each window of three steps at least halves
    the bracket, and plain bisection takes the most halvings to adjacent doubles
    toward the end where the doubles are finest: 102 for the share's
    [_BETA_LO, _BETA_HI] (ulp(1e-15) = 2**-102), 1,074 for the crossing's [0, 1]
    (5e-324 at 0), within the 103 and 1,100 windows the two loops allow."""
    for (lo, hi), halvings, limit in (
            ((allocation._BETA_LO, allocation._BETA_HI), 102, allocation._SHARE_HALVINGS),
            ((0.0, 1.0), 1074, energy._SHARE_HALVINGS)):
        toward_lo = bisection_halvings(lambda x, lo=lo: -1.0 if x == lo else 1.0, lo, hi)
        toward_hi = bisection_halvings(lambda x, hi=hi: 1.0 if x == hi else -1.0, lo, hi)
        assert toward_hi < toward_lo == halvings <= limit


def test_bad_bracket_rejected():
    with pytest.raises(ValidationError):
        Bracket(1.0, 0.0, -1, 1)
    with pytest.raises(ValidationError):
        Bracket(0.0, 1.0, 1, 1)
    with pytest.raises(ValidationError):
        Bracket(0.0, 1.0, math.nan, 1)


@settings(max_examples=100, deadline=None)
@given(root=st.floats(-5.0, 5.0), slope=st.floats(0.1, 50.0))
def test_random_linear_roots(root, slope):
    f = lambda x: slope * (x - root)
    found = solve_monotone(f, Bracket.scan(f, -6.0, 6.0), MAX_ITER)
    assert abs(found - root) <= 1e-11
