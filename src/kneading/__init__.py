"""Exact symbolic dynamics of unimodal maps.

Kneading words and their digit encodings, the accumulation value of the
period-doubling cascade as exact dyadic enclosures, continued fractions of
the level values, kneading determinants and dynamical zeta functions with
certified entropy brackets, subshift language statistics, substitution
letter frequencies, and a floating-point laboratory for logistic and tent
maps.  Everything outside :mod:`kneading.dynamics` computes over integers
and :class:`fractions.Fraction`; no third-party runtime dependencies.

Layers load on first use.  Importing the package registers its eight layers
in ``sys.modules`` without running them; a layer's code runs on the first
attribute read, so a command compiles only the layers it touches.  The names
in ``__all__`` resolve through the module ``__getattr__`` (PEP 562), and
``import kneading.<layer>`` runs the layer as usual.
"""

import importlib.util
import sys
import threading
import types

__version__ = "0.1.0"

# public names, by the layer that defines them
_EXPORTS = {
    "symbolic": (
        "SubstitutionRule", "SymbolStream", "PeriodicStream", "FixedPointStream",
        "FunctionStream", "FEIGENBAUM_RULE", "THUE_MORSE_RULE", "check_word",
        "complement", "minimal_period", "parity_word", "unparity_word", "shift",
        "renormalize_seq", "feigenbaum_word", "feigenbaum_stream", "feigenbaum_limit",
        "stream_to_json", "stream_from_json",
    ),
    "encoding": (
        "xi", "xi_inverse", "tau_of_periodic", "stream_tau", "binary_digits",
        "kneading_from_tau", "is_maximal", "admissible",
    ),
    "feigenbaum": (
        "PAIR_RULE", "PAIR_TO_DIGITS", "DyadicEnclosure", "TauLevel", "tau_level",
        "tau_infinity_digits", "tau_infinity_enclosure", "renormalize_tau",
    ),
    "cfrac": (
        "ContinuedFraction", "Convergent", "ContinuationReport", "cf_of_rational",
        "cf_of_enclosure", "convergents", "cf_table", "cf_continuation_check",
    ),
    "spectral": (
        "EntropyInconclusive", "IntSeries", "OrbitCounts", "EntropyResult",
        "kneading_determinant", "zeta_series", "series_of_rational",
        "orbit_counts", "entropy",
    ),
    "language": ("LanguageQuery", "complexity", "language_words", "forbidden_words"),
    "frequency": (
        "IncidenceMatrix", "incidence", "perron_frobenius", "letter_frequencies",
        "pair_frequencies", "empirical_frequencies", "NormalityReport",
        "normality_report",
    ),
    "dynamics": (
        "OrbitEscapeError", "NotRenormalizableError", "UnimodalMap", "logistic_map",
        "tent_map", "skew_tent_map", "itinerary", "kneading", "renormalize_word",
        "renormalize_map", "superstable_parameter", "band_merging_parameter",
        "Lemma1Report", "lemma1_validate", "ScanRow", "ScanReport",
        "monotonicity_scan",
    ),
}

__all__ = ["__version__", *(name for names in _EXPORTS.values() for name in names)]

_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

# One lock for every layer: a layer's code runs while it is held, and a layer
# that imports another runs that one too, so the lock is re-entrant.
_lock = threading.RLock()
_running = set()    # layers whose code is running now, on the thread holding _lock


class _Layer(types.ModuleType):
    """A registered layer whose code has not run yet.

    The first attribute read runs the module under ``_lock`` and only then
    makes it a plain module, so a thread that waited for the lock finds it
    complete.  ``importlib.util.LazyLoader`` makes the module plain before
    running it and takes no lock, so on Python 3.11 a second thread can read
    a half-run module and miss its names.  Reads made while the module runs
    (the loader's, such as ``exec_module`` fetching ``__dict__``) come from
    the thread that holds the lock and fall through.
    """

    def __getattribute__(self, name):
        with _lock:
            if type(self) is _Layer and self not in _running:
                _running.add(self)
                try:
                    spec = types.ModuleType.__getattribute__(self, "__spec__")
                    spec.loader.exec_module(self)
                    self.__class__ = types.ModuleType
                finally:
                    _running.discard(self)
        return types.ModuleType.__getattribute__(self, name)


def _register(layer: str):
    name = f"{__name__}.{layer}"
    module = importlib.util.module_from_spec(importlib.util.find_spec(name))
    module.__class__ = _Layer
    sys.modules[name] = module
    globals()[layer] = module


for _name in _EXPORTS:
    _register(_name)
del _name


def __getattr__(name):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)


def __dir__():
    return sorted({*globals(), *__all__})
