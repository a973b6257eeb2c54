"""Desk-scale simulator and analysis toolkit for bulk-ensemble NMR quantum computing.

Models pseudo-pure states, ensemble preparation histories, separability
thresholds, NMR signal readout, and quantum state tomography, and reproduces
an embedded two-qubit density-matrix evolution experiment.  The package root
republishes every name in each module's ``__all__``, the one list of its public names.
"""

from nmrsim.core import *  # noqa: F403
from nmrsim.ensemble import *  # noqa: F403
from nmrsim.pseudopure import *  # noqa: F403
from nmrsim.repro import *  # noqa: F403
from nmrsim.separability import *  # noqa: F403
from nmrsim.tomography import *  # noqa: F403

__version__ = "0.1.0"
