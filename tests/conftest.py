"""Test-session set-up.

When a hypothesis test fails, hypothesis imports ``hypothesis.extra._patching``
to suggest an explicit example.  That module imports ``libcst``, which raises
a DeprecationWarning on import; under the suite's ``filterwarnings =
["error"]`` the warning became an error inside pytest's teardown, and the
failure ended in INTERNALERROR instead of its report.  Importing the module
once here, with that warning ignored, keeps the suite's filter as it is.

BLAS is pinned to one thread here, before anything imports NumPy, as
``perfbench/run.py`` and ``tools/kernels.py`` pin it, so the suite's wall
time is one core's whatever the environment says.
"""

import os

# BLAS threads must be pinned before NumPy is imported.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_variable] = "1"

import importlib  # noqa: E402
import warnings  # noqa: E402

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    importlib.import_module("hypothesis.extra._patching")
