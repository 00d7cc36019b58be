"""Unsupervised word translation from raw co-occurrence statistics.

The package is used through its modules (`coocmap.bench`, `coocmap.kernels`,
`coocmap.cli`, ...); it re-exports nothing. Importing it loads no other
module, so each command loads only the modules it runs, and this file can
set the BLAS thread cap before anything imports numpy.
"""

import os as _os

# Cap BLAS threads before numpy loads so COOCMAP_THREADS actually applies.
_threads = _os.environ.get("COOCMAP_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)
