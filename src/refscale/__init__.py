"""refscale: scholarly-reference recall measurement.

Citation parsing and verification scoring, scaling-law fitting, Zipf
exponent estimation, a superposition threshold simulator, and the
citation-tail gradient analysis, wired together by a deterministic CLI.
"""

__version__ = "0.1.0"
