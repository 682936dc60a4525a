"""``kneading cf``: continued-fraction expansions."""

from .. import cfrac, feigenbaum
from . import _Result, _check_bits


def add_arguments(p):
    p.add_argument("what", choices=("tau-level", "tau-infinity", "table"))
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--bits", "--precision-bits", dest="bits", type=int, default=4096)
    p.add_argument("--jmax", type=int, default=8)
    p.add_argument("--out")


def run(args) -> _Result:
    _check_bits(args.bits)
    if args.what == "tau-level":
        if not 1 <= args.j <= 12:
            raise ValueError("level must be in 1..12")
        q = list(cfrac._quotients(*feigenbaum._closed_form_pq(args.j)))
        return _Result({"j": args.j, "quotients": q, "count": len(q)},
                       text=" ".join(map(str, q)))
    if args.what == "tau-infinity":
        q = cfrac.cf_of_enclosure(feigenbaum.tau_infinity_enclosure(args.bits))
        return _Result({"bits": args.bits, "quotients": q, "count": len(q)})
    rows = cfrac.cf_table(args.jmax)
    return _Result([{"j": j, "quotients": q, "count": n} for j, q, n in rows],
                   (("j", "n_j", "quotients"),
                    [(j, n, " ".join(map(str, q))) for j, q, n in rows]))
