"""Degenerate weights: classification and exact singular moments.

The weight a(x) = |x - x0|^K vanishes at an interior point.  Whether 1/a
stays integrable across the zero (K < 1) or not (K >= 1) decides which
function spaces, boundary couplings and constraints the solver uses, so
the classification and the weighted moments have to be exact.
"""
from scipy.integrate import quad

from wentzell4 import (
    ConfigError,
    check_power_comparison,
    classify,
    constant_profile,
    power_profile,
    singular_moment,
)

print("classification of power-law weights a = |x - 1/2|^K")
for K in (0.0, 0.25, 0.5, 0.99, 1.0, 1.5, 1.99):
    coeff = power_profile(0.5, K)
    print(f"  K = {K:4}: {classify(coeff).value}")

print("\nmonotone power comparison (strong results need one with exponent in [1, 2),")
print("which for a = |x - 1/2|^K holds iff K < 2):")
for K in (0.5, 1.0, 1.5, 1.99, 2.0, 2.5):
    try:
        check_power_comparison(power_profile(0.5, K))
        verdict = "admissible"
    except ConfigError as exc:
        verdict = f"refused ({exc})"
    print(f"  K = {K:4}: {verdict}")

print("\nexact moments of x^m against a^sign, checked against scipy.integrate.quad:")
a = power_profile(0.5, 0.5)
for m, sign in ((0, -1), (1, -1), (0, 1), (3, 1)):
    exact = singular_moment(a, (0.0, 1.0), m, sign)
    ref = quad(lambda x: x**m * a(x) ** sign, 0, 1, points=[0.5], limit=400)[0]
    print(f"  m={m} sign={sign:+d}: closed form {exact:.15f}, quad {ref:.15f}")

print("\nthe K = 1/2 reciprocal mass is 2*sqrt(2):", singular_moment(a, (0, 1), 0, -1))
print("a constant profile never degenerates:", classify(constant_profile(2.0)).value)
