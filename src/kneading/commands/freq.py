"""``kneading freq``: block frequencies of symbol streams."""

from .. import feigenbaum, frequency, symbolic, words
from . import _num, _reads, _Result

_STREAMS = {
    "feigenbaum": lambda: symbolic.feigenbaum_limit(),
    "thue-morse": lambda: symbolic.FixedPointStream(words.THUE_MORSE_RULE, "0"),
    "tau-inf": lambda: feigenbaum.tau_infinity_digits(),
}

# every stream here is a uniform substitution's fixed point, counted by
# recursion on the prefix in O(log prefix) levels: a few ms at both caps on
# a 2-core Xeon; --block bounds the output, one entry per distinct block
CAPS = {"block": ("block", None, 64), "prefix": ("prefix", None, 1 << 62)}


def add_arguments(p):
    p.add_argument("--stream", choices=sorted(_STREAMS), default="feigenbaum")
    p.add_argument("--block", type=int, default=1)
    p.add_argument("--prefix", type=int, default=1 << 16)
    p.add_argument("--aligned", action="store_true")


def run(args) -> _Result:
    _reads(args, "freq", ("format", "as_float", "stream", "block", "prefix", "aligned"),
           CAPS)
    stream = _STREAMS[args.stream]()
    freqs = frequency.empirical_frequencies(stream, args.block, args.prefix,
                                            aligned=args.aligned)
    predicted = None
    if args.stream == "feigenbaum" and args.block == 1:
        predicted = frequency.letter_frequencies(words.FEIGENBAUM_RULE)
    elif args.stream == "tau-inf" and args.block == 2 and args.aligned:
        predicted = frequency.pair_frequencies()
    payload = {"stream": args.stream, "block": args.block, "prefix": args.prefix,
               "aligned": args.aligned,
               "frequencies": {k: _num(v, args) for k, v in freqs.items()}}
    if predicted is not None:
        payload["predicted"] = {k: _num(v, args) for k, v in predicted.items()}
    return _Result(payload)
