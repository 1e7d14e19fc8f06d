"""Shared test settings.

``--hypothesis-profile=ci`` runs every Hypothesis property on the same
derandomized cases (200 examples, no deadline), so two CI legs on different
numpy releases check the same inputs.

When a property fails, Hypothesis's pytest plugin imports ``libcst`` (if it
is installed) to print a patch, and ``libcst`` uses the deprecated
``mypy_extensions.TypedDict``. Under ``-W error`` that DeprecationWarning
turns the failure into a pytest internal error (exit 3, not 1), so
``libcst`` is imported here once, with that warning ignored."""

import warnings

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("ci", derandomize=True, max_examples=200, deadline=None)

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:  # not installed: the plugin cannot import it either
        pass
