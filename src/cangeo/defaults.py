"""The oracle's run defaults and its bounds on trials and the modulus.

Kept apart from `fatpoints` so that the command line can state its
defaults and check `--trials` and `--prime` without loading numpy.
"""

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
