"""Weekly power-quality utilization forecasting toolkit.

Preprocesses 10-minute measurements into weekly utilization series, fits
eight classical forecasting models, combines them into all 247 ensemble
configurations under four combination rules, and evaluates everything
with rank-based corpus statistics. Import each name from the submodule
that defines it, so a CLI stage loads only the code it runs.
"""

__version__ = "0.1.0"
