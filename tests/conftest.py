"""Keeps a failing Hypothesis test's report readable.

When a property test fails, Hypothesis's pytest plugin imports
`hypothesis.extra._patching` inside pytest's report hook to write a patch of
the failing example. That module imports libcst, whose import raises a
DeprecationWarning (mypy_extensions.TypedDict), and `filterwarnings =
["error"]` turns it into an INTERNALERROR that hides the falsifying example.
Importing the module once here, with that one import's DeprecationWarning
ignored, leaves the hook a cached import; the warning filter for the tests
themselves is unchanged.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst missing: the plugin skips the patch too
        pass
