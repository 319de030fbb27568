"""Test oracles: brute-force and sampling checks that the library does
not use, kept beside the tests that compare the library against them."""

import itertools
import random

from ramify.errors import DivisionByZero, InsufficientPrecision
from ramify.extension import integral_basis, integral_sample


def exhaustive_identity(lhs, rhs, field):
    """Check an identity on every point of a finite field."""
    names = sorted(lhs.variables() | rhs.variables())
    for point in itertools.product(field.elements(), repeat=len(names)):
        env = dict(zip(names, point))
        try:
            a = lhs.evaluate(env, field)
            b = rhs.evaluate(env, field)
        except DivisionByZero:
            continue
        if a != b:
            return False
    return True


def series_is_integral(s):
    """No pole on the known range; needs the full negative range known."""
    if any(e < 0 for e in s.coeffs):
        return False
    if s.prec < 0:
        raise InsufficientPrecision(
            f"integrality needs precision >= 0, series known below t^{s.prec}"
        )
    return True


def is_integral(x):
    """Whether the element x of L is integral: v_L(x) >= 0 through the
    norm, or coefficientwise when the norm lacks precision."""
    try:
        return x.valuation() >= 0
    except InsufficientPrecision:
        if x._coeffwise_valid():
            return x.valuation_coeffwise() >= 0
        raise


def lefschetz_minimum(ext, samples=40, seed=0):
    """Sampling oracle for i_sigma: min of v_L(sigma(b) - b) over random
    integral b, seeded with the boundary generators themselves."""
    ext = integral_basis(ext).ext
    rng = random.Random(seed)
    best = None
    pool = list(ext.integral_generators())
    pool += [integral_sample(ext, rng) for _ in range(samples)]
    for b in pool:
        diff = b.sigma(1) - b
        if diff.is_zero_known():
            continue
        v = diff.valuation_coeffwise()
        if best is None or v < best:
            best = v
    return best
