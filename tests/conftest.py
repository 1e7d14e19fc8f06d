"""Shared test settings.

``--hypothesis-profile=ci`` runs every Hypothesis property derandomized (200
examples, no deadline), so two CI legs on different numpy releases check the
same inputs. ``--hypothesis-profile=fuzz`` is the same with 2,000 examples, for
a longer search (CI runs ``tests/test_hostile.py`` under it). ``derandomize``
fixes each test's seed, not its cases: Hypothesis also draws values from the
literals of every local module it has imported, ``src/`` included, so any
edit to the text of ``src/`` can change which cases run. It caches those
literals under ``.hypothesis``, and a run that reads that cache draws other
cases than one that does not, so under either profile Hypothesis keeps its
directory in a fresh temporary one, removed at exit: a run draws the same
cases from the same source, cache or no cache. A case that must always run is
pinned with ``@example``.

When a property fails, Hypothesis's pytest plugin imports ``libcst`` (if it
is installed) to print a patch, and ``libcst`` uses the deprecated
``mypy_extensions.TypedDict``. Under ``-W error`` that DeprecationWarning
turns the failure into a pytest internal error (exit 3, not 1), so
``libcst`` is imported here once, with that warning ignored."""

import shutil
import tempfile
import warnings

try:
    from hypothesis import configuration, settings
except ImportError:  # the property tests skip themselves
    configuration = None
else:
    settings.register_profile("ci", derandomize=True, max_examples=200, deadline=None)
    settings.register_profile("fuzz", derandomize=True, max_examples=2000, deadline=None)

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:  # not installed: the plugin cannot import it either
        pass


def pytest_configure(config):
    profile = config.getoption("--hypothesis-profile", None)
    if configuration is not None and profile in ("ci", "fuzz"):
        home = tempfile.mkdtemp(prefix="aadetect-hypothesis-")
        configuration.set_hypothesis_home_dir(home)
        config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
