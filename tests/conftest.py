"""Shared test settings.

``--hypothesis-profile=ci`` runs every Hypothesis property on the same
derandomized cases (200 examples, no deadline), so two CI legs on different
numpy releases check the same inputs."""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("ci", derandomize=True, max_examples=200, deadline=None)
