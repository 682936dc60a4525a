"""``kneading cf``: continued-fraction expansions."""

from .. import cfrac, feigenbaum
from . import _BITS_CAP, _Result, _reads

# tau-level --j 12 runs Euclid on 2049-bit integers, about 4 ms; cf table's
# --jmax has the same cap, which cfrac.cf_table checks
CAPS = {"j": ("level", 1, 12), "bits": _BITS_CAP}


def add_arguments(p):
    p.add_argument("what", choices=("tau-level", "tau-infinity", "table"))
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--bits", "--precision-bits", dest="bits", type=int, default=4096)
    p.add_argument("--jmax", type=int, default=8)
    p.add_argument("--out")


def run(args) -> _Result:
    # each `what` reads one option of its own; no quotient is a fraction
    _reads(args, f"cf {args.what}", ("format", "out", {
        "tau-level": "j", "tau-infinity": "bits", "table": "jmax"}[args.what]), CAPS)
    if args.what == "tau-level":
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
