"""Load every weaktyp module before any test runs.

Hypothesis seeds its example draws partly with constants mined from the
local non-test modules loaded at the time.  A derandomized property test
would then draw different examples depending on which test modules had
imported what before it; with every module loaded up front it draws the
same examples alone, after any other module, and in the full suite.
"""

import weaktyp.cli  # noqa: F401  (imports every module of the package)
