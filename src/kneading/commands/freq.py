"""``kneading freq``: block frequencies of symbol streams."""

from .. import feigenbaum, frequency, symbolic
from . import _check_cap, _num, _Result

_STREAMS = {
    "feigenbaum": lambda: symbolic.feigenbaum_limit(),
    "thue-morse": lambda: symbolic.FixedPointStream(symbolic.THUE_MORSE_RULE, "0"),
    "tau-inf": lambda: feigenbaum.tau_infinity_digits(),
}


def add_arguments(p):
    p.add_argument("--stream", choices=sorted(_STREAMS), default="feigenbaum")
    p.add_argument("--block", type=int, default=1)
    p.add_argument("--prefix", type=int, default=1 << 16)
    p.add_argument("--aligned", action="store_true")


def run(args) -> _Result:
    # windows longer than 8 symbols are counted one at a time: about 1.3 s
    # at both caps on a 2-core Xeon
    _check_cap("block", args.block, 64)
    _check_cap("prefix", args.prefix, 1 << 22)
    stream = _STREAMS[args.stream]()
    freqs = frequency.empirical_frequencies(stream, args.block, args.prefix,
                                            aligned=args.aligned)
    predicted = None
    if args.stream == "feigenbaum" and args.block == 1:
        predicted = frequency.letter_frequencies(symbolic.FEIGENBAUM_RULE)
    elif args.stream == "tau-inf" and args.block == 2 and args.aligned:
        predicted = frequency.pair_frequencies()
    payload = {"stream": args.stream, "block": args.block, "prefix": args.prefix,
               "aligned": args.aligned,
               "frequencies": {k: _num(v, args) for k, v in freqs.items()}}
    if predicted is not None:
        payload["predicted"] = {k: _num(v, args) for k, v in predicted.items()}
    return _Result(payload)
