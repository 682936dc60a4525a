"""``kneading tau``: period-doubling parameter levels."""

from .. import feigenbaum
from . import _BITS_CAP, _Result, _reads

# level j's word has 2^j digits and q_j has 2^(j-1) + 1 bits: at --j 20 a
# 2^20-digit word and two 157827-digit integers, about 0.04 s in process
CAPS = {"j": ("level", 1, 20), "bits": _BITS_CAP}


def add_arguments(p):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--j", type=int)
    g.add_argument("--infinity", action="store_true")
    p.add_argument("--bits", "--precision-bits", dest="bits", type=int, default=128)


def run(args) -> _Result:
    if vars(args).get("infinity"):
        _reads(args, "tau --infinity", ("format", "infinity", "bits"), CAPS)
        return _Result(feigenbaum.tau_infinity_enclosure(args.bits).to_json())
    _reads(args, "tau --j", ("format", "as_float", "j"), CAPS)
    lvl = feigenbaum.tau_level(args.j)
    # p/q is in lowest terms, so no Fraction repeats a gcd of 2^(j-1)-bit
    # integers; str() refuses q past level 14, and the decimal digits come
    # from the closed form evaluated in decimal, at a multiplication's cost
    p, q = feigenbaum._decimal_pq(args.j)
    return _Result({"j": lvl.j, "p": p, "q": q,
                    "tau": lvl.p / lvl.q if args.as_float else f"{p}/{q}",
                    "digits": lvl.period_digits},
                   text=f"j={lvl.j} tau={p}/{q} digits={lvl.period_digits}")
