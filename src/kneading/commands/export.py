"""``kneading export``: plot-ready data files."""

import math

from .. import frequency, symbolic
from . import _check_cap, _num, _Result


def add_arguments(p):
    p.add_argument("kind", choices=("zeta-roots", "bifurcation-scan",
                                    "frequency-convergence"))
    p.add_argument("--j", type=int, default=6)
    p.add_argument("--from", dest="lo", type=float, default=3.5)
    p.add_argument("--to", dest="hi", type=float, default=4.0)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--n", type=int, default=24)
    p.add_argument("--kmin", type=int, default=10)
    p.add_argument("--kmax", type=int, default=20)
    p.add_argument("--out")


def _zeta_roots(args) -> _Result:
    # denominator (1 - z) * prod_{n<=j} (1 - z^(2^n)); every root is a root
    # of unity, listed factor by factor with multiplicity
    j = args.j
    # 2^(j+1) - 1 rows, each a product of j + 2 factors: about 13 ms at the
    # cap on a 2-core Xeon, a little over twice that per level
    if not 0 <= j <= 11:
        raise ValueError("j must be in 0..11")
    rows = []
    for n in range(j + 1):
        m = 2 ** n
        for k in range(m):
            ang = 2.0 * math.pi * k / m
            z = complex(math.cos(ang), math.sin(ang))
            # the residual from the factored form, w = z^(2^i) by squaring
            val, w = 1 - z, z
            for _ in range(j + 1):
                val, w = val * (1 - w), w * w
            rows.append((n, k, z.real, z.imag,
                         abs(abs(z) - 1.0), abs(val)))
    return _Result([{"factor": n, "k": k, "re": re, "im": im,
                     "modulusError": me, "residual": rv}
                    for n, k, re, im, me, rv in rows],
                   (("factor", "k", "re", "im", "modulus_error", "residual"), rows))


def _frequency_convergence(args) -> _Result:
    if args.kmin < 1 or args.kmin > args.kmax:
        raise ValueError("need 1 <= kmin <= kmax")
    # the prefixes add up to 2^(kmax+1) symbols: about 1.2 s and 180 MB at
    # the cap on a 2-core Xeon
    _check_cap("kmax", args.kmax, 25)
    stream = symbolic.feigenbaum_limit()
    predicted = frequency.letter_frequencies(symbolic.FEIGENBAUM_RULE)
    rows = []
    for k in range(args.kmin, args.kmax + 1):
        n = 1 << k
        obs = frequency.empirical_frequencies(stream, 1, n)
        dev = max(abs(obs.get(b, 0) - predicted[b]) for b in "01")
        rows.append((k, n, _num(dev, args)))
    return _Result([{"k": k, "n": n, "deviation": d} for k, n, d in rows],
                   (("k", "n", "deviation"), rows))


def run(args) -> _Result:
    if args.kind == "bifurcation-scan":
        # the same scan as `dyn scan`; its module loads only for this kind
        from .dyn import _scan
        return _scan(args)
    if args.kind == "zeta-roots":
        return _zeta_roots(args)
    return _frequency_convergence(args)
