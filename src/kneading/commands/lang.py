"""``kneading lang``: admissible-word language."""

from .. import encoding, language
from . import _reads, _Result
from ._spec import _tau_stream

# by mode: forbidden writes one word of up to nmax symbols per zero digit, at
# the cap about 4 MB of output in 0.15 s on a 2-core Xeon; complexity's nmax
# is capped by the layer, at language.ENUM_LIMIT
CAPS = {"complexity": {}, "forbidden": {"nmax": ("nmax", None, 4096)}}


def add_arguments(p):
    p.add_argument("what", choices=("complexity", "forbidden"))
    p.add_argument("--tau", required=True)
    p.add_argument("--nmax", type=int, default=12)
    p.add_argument("--mode", choices=("core", "full-interval"), default="core")
    p.add_argument("--out")


def run(args) -> _Result:
    _reads(args, f"lang {args.what}", ("format", "tau", "nmax", "out")
           + (("mode",) if args.what == "complexity" else ()), CAPS[args.what])
    stream = _tau_stream(args.tau)
    if args.what == "complexity":
        counts = language.complexity(language.LanguageQuery(stream, args.nmax, args.mode))
        return _Result({"tau": args.tau, "mode": args.mode, "counts": counts},
                       (("n", "p_n"), list(enumerate(counts, start=1))))
    # complexity makes the same check in language._validate
    if encoding.is_maximal(stream) is not True:
        raise ValueError("K is not a maximal stream")
    return _Result({"tau": args.tau, "nmax": args.nmax,
                    "forbidden": language.forbidden_words(encoding.xi(stream), args.nmax)})
