"""The oracle's run defaults, its bounds on trials and the modulus, and
the primality test of the modulus.

Kept apart from `fatpoints` so that the command line can state its
defaults and check `--trials` and `--prime` without loading numpy.
"""

from functools import lru_cache

DEFAULT_PRIME = 2147483647  # 2**31 - 1
DEFAULT_SEED = 0xC0FFEE
DEFAULT_TRIALS = 5
# An oracle measurement runs at most this many trials: it stops at the
# first whose reading sits on the floor no configuration can pass, so its
# work grows linearly with the trials only above that floor (a special
# system, or unlucky draws).  Five already push the README's failure bound
# below 5e-29 on the test suite's largest systems: a larger count buys
# time, not certainty.
MAX_TRIALS = 100
# Products of two residues are formed in int64 and reduced mod p before the
# next multiply, so no intermediate exceeds (p-1)**2 in size.  That is exact
# while (p-1)**2 < 2**63, which holds for every p <= MAX_PRIME.  The block
# elimination also needs p < 2**32 (see fatpoints._submul_mod_p), which
# follows.  MAX_PRIME is that bound, not a prime (13 * 233615423); the
# largest prime accepted is 3037000493.
MAX_PRIME = 3037000499


@lru_cache(maxsize=64)   # a run uses one modulus, a test suite a few
def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the prime bases up to 37.

    Those bases are proven sufficient below about 3.3e24, far above the
    largest modulus the oracle accepts (MAX_PRIME).  Memoised: a test at
    2**31 - 1 takes about 80 us, and the oracle checks its modulus on
    every draw, build and elimination, 63 times in
    `table --d 2..8 --s 1..40 --oracle`.
    """
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in small:
        if n % q == 0:
            return n == q
    d, twos = n - 1, 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
