"""Local polynomial regression for pooled-response data.

The library estimates a conditional mean m(x) = E(Y | X = x) when only
pooled responses are observed: each measurement is the average of the
unseen responses of the individuals sharing one assay. Four estimators
are provided (an individual-data benchmark, average-weighted and
product-weighted pooled fits, and a pseudo-response fit), together with
random and homogeneous pooling designs, cross-validated bandwidths,
asymptotic bias and variance summaries, a Monte Carlo harness, and
pool-resampling bootstrap bands. The ``poolreg`` command line exposes
the same functionality as CSV-emitting subcommands.

``import poolreg`` loads neither numpy nor any submodule. The seven
library modules are imported, and their public names bound here, on the
first public name, ``__all__`` or ``dir()`` asked for (PEP 562); a
submodule name, ``cli`` included, imports that module alone. So
``poolreg.cli`` can pin the BLAS thread count before numpy loads.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_MODULES = ("bandwidth", "data", "errors", "estimators", "kernels", "simulation", "theory")


def _public_names() -> list:
    """Import the seven modules once, bind their public names here, return __all__."""
    if "__all__" not in globals():
        names = []
        for sub in _MODULES:
            module = _import_module(f"{__name__}.{sub}")
            globals().update((name, getattr(module, name)) for name in module.__all__)
            names += module.__all__
        globals()["__all__"] = names
    return globals()["__all__"]


def __getattr__(name: str):
    if name in _MODULES or name == "cli":
        return _import_module(f"{__name__}.{name}")
    if name == "__all__":
        return _public_names()
    # dunder probes (doctest's __test__, inspect's __wrapped__) must not import numpy
    if not name.startswith("__") and name in _public_names():
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *_public_names(), *_MODULES})
