"""Exact references for the closed forms, in integers, and their 17-digit rounding.

Each reference is a (numerator, denominator) pair of ints taken from the
exact values of the float inputs.  They are built without Fraction, whose
gcd on every step would cost quadratic time on the multi-megabit integers
of a thermal total at M = 1e5.
"""

import math
from fractions import Fraction

from twinfock.detection import TableNoise, ThermalNoise


def sci17(numerator: int, denominator: int = 1) -> str:
    """numerator / denominator >= 0 rounded half-even to 17 significant digits.

    In the pfa-curves layout: d.dddddddddddddddde<exponent>, with the
    exponent signed and unpadded, and 0 for zero.
    """
    if not numerator:
        return "0"
    # within one of the decimal exponent, from the bit lengths
    exp10 = math.floor((numerator.bit_length() - denominator.bit_length()) * math.log10(2))
    while True:
        shift = 16 - exp10
        num, den = ((numerator * 10 ** shift, denominator) if shift >= 0
                    else (numerator, denominator * 10 ** -shift))
        digits, rest = divmod(num, den)
        if digits < 10 ** 16:
            exp10 -= 1
        elif digits >= 10 ** 17:
            exp10 += 1
        else:
            break
    if 2 * rest > den or (2 * rest == den and digits % 2):
        digits += 1
    if digits == 10 ** 17:
        digits, exp10 = 10 ** 16, exp10 + 1
    text = str(digits)
    return f"{text[0]}.{text[1:]}e{exp10:+d}"


def fraction17(value: Fraction) -> str:
    """sci17 of a Fraction."""
    return sci17(value.numerator, value.denominator)


def falling_ratios(photons: int, modes: int) -> tuple[list[int], int]:
    """(C_1..C_N, D): term k of P_FA is C_k / D = C(N - k + M - 1, M - 1) / C(N + M - 1, M - 1)."""
    numerators = []
    current = math.comb(photons + modes - 1, modes - 1)
    denominator = current
    for k in range(1, photons + 1):
        # C(N - k + M - 1, M - 1) from C(N - k + M, M - 1), exactly
        current = current * (photons - k + 1) // (photons - k + modes)
        numerators.append(current)
    return numerators, denominator


def pfa_total(photons: int, modes: int, noise) -> tuple[int, int]:
    """The exact P_FA total of the closed form, for the exact values of the noise floats."""
    numerators, denominator = falling_ratios(photons, modes)
    if isinstance(noise, ThermalNoise):
        # 1 + nbar = q / d and x = n / q, so term k weighs d^M n^k / q^(M + k)
        n, d = noise.nbar.as_integer_ratio()
        q = n + d
        weighted, n_power = 0, 1
        for c in numerators:  # Horner: the sum of C_k n^k q^(N - k)
            n_power *= n
            weighted = weighted * q + c * n_power
        # d is a power of two, so d^M is a shift
        return weighted << (d.bit_length() - 1) * modes, denominator * q ** (modes + photons)
    assert isinstance(noise, TableNoise)
    probs = [Fraction(v) for v in noise.values[:photons]]
    common = max((p.denominator for p in probs), default=1)  # all powers of two
    weighted = sum(c * p.numerator * (common // p.denominator) for c, p in zip(numerators, probs))
    return weighted, denominator * common


def pfa_cell(photons: int, modes: int, noise) -> dict[str, str]:
    """Every pfa-curves value of one cell, by series name, from the exact references."""
    numerators, denominator = falling_ratios(photons, modes)
    values = {f"term:{k}": sci17(c, denominator) for k, c in enumerate(numerators, start=1)}
    values["total"] = sci17(*pfa_total(photons, modes, noise))
    values["baseline:1_over_M"] = sci17(1, modes)
    values["baseline:N_over_M"] = sci17(photons, modes)
    return values
