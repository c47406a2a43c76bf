"""Test-session set-up.

When a hypothesis test fails, hypothesis imports ``hypothesis.extra._patching``
to suggest an explicit example.  That module imports ``libcst``, which raises
a DeprecationWarning on import; under the suite's ``filterwarnings =
["error"]`` the warning became an error inside pytest's teardown, and the
failure ended in INTERNALERROR instead of its report.  Importing the module
once here, with that warning ignored, keeps the suite's filter as it is.
"""

import importlib
import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    importlib.import_module("hypothesis.extra._patching")
