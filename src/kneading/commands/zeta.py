"""``kneading zeta``: kneading determinant and zeta series."""

from .. import encoding, spectral
from . import _num, _reads, _Result
from ._spec import _fraction, _tau_stream

# p/q and feigenbaum:j expand the rational zeta in O(order * (m + p))
# products, m + p the determinant's degree; feigenbaum:inf still costs
# O(order^2), and so bounds the order: about 0.33 s for --counts at the
# cap in a fresh process on a 2-core Xeon
CAPS = {"order": ("order", 1, 2048)}


def add_arguments(p):
    p.add_argument("--tau", required=True,
                   help="p/q, feigenbaum:j, or feigenbaum:inf")
    p.add_argument("--order", type=int, default=30)
    p.add_argument("--counts", action="store_true")
    p.add_argument("--entropy", action="store_true")
    p.add_argument("--tol", default="1/10000000000")


def run(args) -> _Result:
    entropy = vars(args).get("entropy", False)
    _reads(args, "zeta --entropy" if entropy else "zeta without --entropy",
           ("format", "tau", "order", "counts", "entropy")
           + (("tol", "as_float") if entropy else ()), CAPS)
    # parsed here, not by argparse, which would print its usage and
    # "invalid value" in place of _fraction's reason
    tol = _fraction(args.tol) if entropy else None
    # entropy costs more as tol shrinks: --order 2048 on feigenbaum:inf
    # takes about 1.2 s at this floor and 7.2 s at 1/10^300 on a 2-core Xeon
    if args.entropy and 0 < tol and tol * 10 ** 100 < 1:
        raise ValueError("tolerance must be at least 1/10^100")
    stream = _tau_stream(args.tau)
    if (args.counts or args.entropy) and encoding.is_maximal(stream) is not True:
        raise ValueError("K is not a maximal stream")
    det = spectral.kneading_determinant(stream, args.order)
    zeta = spectral.zeta_series(det)
    payload = {"tau": args.tau, "order": args.order,
               "determinant": list(det.coefficients), "zeta": list(zeta.coefficients)}
    if args.counts:
        oc = spectral.orbit_counts(det)
        payload["perCounts"] = {str(n): c for n, c in oc.per_counts.items()}
        payload["primeCounts"] = {str(n): c for n, c in oc.prime_counts.items()}
    if args.entropy:
        try:
            res = spectral.entropy(det, tol=tol)
            bracket = None
            if res.z_bracket is not None:
                bracket = [_num(b, args) for b in res.z_bracket]
            payload["entropy"] = {"lo": res.lo, "hi": res.hi, "method": res.method,
                                  "bracket": bracket}
        except spectral.EntropyInconclusive as e:
            payload["entropy"] = {"error": str(e)}
    return _Result(payload)
