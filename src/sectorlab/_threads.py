"""Pin native thread pools to one thread unless the caller chose a count.

The package makes no BLAS call, but numpy still starts its BLAS pool at
import, and an unpinned pool makes `import sectorlab` measurably slower.
The variables must be set before numpy initialises, so this module is
imported at the very top of the package __init__, ahead of anything that
touches numpy.  A count already in the environment wins.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
