"""Rendering helpers: aligned text tables and (x, y) figure series.

The benchmark harness regenerates every table and figure of the paper;
tables print as aligned text, and each figure is a list of series that
can be exported to CSV for plotting elsewhere.
"""

from repro.reporting.series import Series, write_csv
from repro.reporting.tables import render_table

__all__ = ["Series", "render_table", "write_csv"]
