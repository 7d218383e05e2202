"""Simulation framework for untrusted cloud quantum backends.

Models a provider that tampers with measurement results, the metrics a
user can compute without ground truth, and shot-distribution defenses.
Import each name from its module, e.g. ``from qtrust.simulator import execute``.
"""

__version__ = "0.1.0"
