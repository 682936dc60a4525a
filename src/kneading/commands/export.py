"""``kneading export``: plot-ready data files."""

import math

from .. import frequency, symbolic, words
from . import _num, _reads, _Result

# zeta-roots writes 2^(j+1) - 1 rows, each a product of j + 2 factors: about
# 13 ms at the cap on a 2-core Xeon, a little over twice that per level;
# frequency-convergence counts each prefix 2^k by recursion in O(k) levels,
# not built: tens of ms at the cap; bifurcation-scan takes dyn's caps
CAPS = {"j": ("j", 0, 11), "kmax": ("kmax", None, 62)}


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
    stream = symbolic.feigenbaum_limit()
    predicted = frequency.letter_frequencies(words.FEIGENBAUM_RULE)
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
        # the same scan as `dyn scan`, with its caps; dyn loads only for this kind
        from .dyn import CAPS as scan_caps, _scan
        _reads(args, "export bifurcation-scan", ("format", "out", "lo", "hi", "steps", "n"),
               scan_caps)
        return _scan(args)
    if args.kind == "zeta-roots":
        _reads(args, "export zeta-roots", ("format", "out", "j"), CAPS)
        return _zeta_roots(args)
    _reads(args, "export frequency-convergence",
           ("format", "out", "as_float", "kmin", "kmax"), CAPS)
    return _frequency_convergence(args)
