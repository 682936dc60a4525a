"""``kneading dyn``: floating-point unimodal dynamics."""

from .. import dynamics
from . import _reads, _Result

# float orbits carry no information past a few dozen symbols; the costs are
# linear in --n times --steps or --pairs: at the caps, as a fresh process on
# a 2-core Xeon, about 0.18 s for scan and 0.26 s for lemma1 on a map that is
# not closed (a tent slope past 2), and 0.05 s for lemma1 on a closed map,
# whose pairs stop stepping once they are settled; export bifurcation-scan
# runs the scan with these caps
CAPS = {"steps": ("steps", None, 4096), "n": ("n", None, 256),
        "pairs": ("pairs", None, 4096)}


def add_arguments(p):
    p.add_argument("what", choices=("kneading", "scan", "lemma1"))
    p.add_argument("--family", choices=("logistic", "tent"), default="logistic")
    p.add_argument("--r", type=float, default=3.9)
    p.add_argument("--slope", type=float, default=2.0)
    p.add_argument("--eta", type=float, default=1e-9)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--from", dest="lo", type=float, default=3.5)
    p.add_argument("--to", dest="hi", type=float, default=4.0)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--pairs", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")


# the options each `what` reads, by dest; kneading and lemma1 also read their
# family's parameter, and no `what` prints a fraction for --float to change
_READS = {
    "kneading": ("format", "family", "eta", "n", "out"),
    "lemma1": ("format", "family", "eta", "n", "pairs", "seed", "out"),
    "scan": ("format", "lo", "hi", "steps", "n", "out"),
}
_PARAMETER = {"logistic": "r", "tent": "slope"}


def _map(args):
    if args.family == "logistic":
        return dynamics.logistic_map(args.r, eta=args.eta)
    return dynamics.tent_map(args.slope, eta=args.eta)


def _scan(args) -> _Result:
    """`dyn scan` and `export bifurcation-scan`."""
    if args.steps < 2:
        raise ValueError("need at least two grid points")
    # decreases counts the steps where tau falls as r grows
    if args.lo > args.hi:
        raise ValueError("need --from <= --to")
    grid = [args.lo + (args.hi - args.lo) * i / (args.steps - 1)
            for i in range(args.steps)]
    rep = dynamics.monotonicity_scan(grid, args.n)
    rows = [(row.r, row.tau, row.reliable_prefix) for row in rep.rows]
    return _Result({"decreases": rep.decreases,
                    "rows": [{"r": r, "tau": t, "reliablePrefix": k} for r, t, k in rows]},
                   (("r", "tau", "reliable_prefix"), rows))


def run(args) -> _Result:
    if args.what == "scan":
        # the scan is of the logistic family with the default band
        _reads(args, "dyn scan", _READS["scan"], CAPS)
        return _scan(args)
    family = vars(args).get("family", args.options["family"][1])
    _reads(args, f"dyn {args.what} of the {family} family",
           (*_READS[args.what], _PARAMETER[family]), CAPS)
    if args.what == "kneading":
        word, flags = dynamics.kneading(_map(args), args.n)
        return _Result({"family": args.family,
                        "parameter": args.r if args.family == "logistic" else args.slope,
                        "n": args.n, "word": word,
                        "reliable": "".join("R" if f else "u" for f in flags)})
    rep = dynamics.lemma1_validate(_map(args), args.pairs, args.n, seed=args.seed)
    return _Result({"pairsTested": rep.pairs_tested,
                    "pairsDecided": rep.pairs_decided,
                    "pairsExcluded": rep.pairs_excluded,
                    "violations": rep.violations},
                   code=0 if rep.violations == 0 else 1)
