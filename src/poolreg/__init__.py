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
"""

from . import bandwidth, data, errors, estimators, kernels, simulation, theory
from .bandwidth import *
from .data import *
from .errors import *
from .estimators import *
from .kernels import *
from .simulation import *
from .theory import *

__version__ = "0.1.0"

__all__ = [
    *bandwidth.__all__,
    *data.__all__,
    *errors.__all__,
    *estimators.__all__,
    *kernels.__all__,
    *simulation.__all__,
    *theory.__all__,
]
