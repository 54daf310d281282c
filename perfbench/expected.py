"""The measured column of EXPERIMENTS.md's Table 1, as the check compares it.

Per design, for Base and Ours: full-found %, fragmentation, not-found %
and the number of relevant control signals, formatted exactly as the
table prints them.  A ``table1`` pass whose row formats differently is a
wrong output.
"""

from __future__ import annotations

from typing import Dict, Tuple

__all__ = ["TABLE1", "format_row"]

Cell = Tuple[str, str, str, int]

#: design -> (Base cells, Ours cells)
TABLE1: Dict[str, Tuple[Cell, Cell]] = {
    "b03": (("71.4", "0.67", "14.3", 0), ("85.7", "0.00", "14.3", 1)),
    "b04": (("77.8", "0.50", "11.1", 0), ("88.9", "0.00", "11.1", 1)),
    "b05": (("80.0", "0.00", "20.0", 0), ("80.0", "0.00", "20.0", 7)),
    "b07": (("57.1", "0.33", "14.3", 0), ("57.1", "0.33", "14.3", 0)),
    "b08": (("40.0", "0.58", "20.0", 0), ("80.0", "0.00", "20.0", 3)),
    "b11": (("60.0", "0.54", "0.0", 0), ("60.0", "0.54", "0.0", 2)),
    "b12": (("82.6", "0.39", "8.7", 0), ("91.3", "0.29", "4.3", 3)),
    "b13": (("28.6", "0.67", "28.6", 0), ("42.9", "0.70", "14.3", 2)),
    "b14": (("50.0", "0.14", "0.0", 0), ("62.5", "0.17", "0.0", 1)),
    "b15": (("68.8", "0.15", "6.2", 0), ("81.2", "0.15", "0.0", 4)),
    "b17": (("66.3", "0.17", "7.1", 0), ("76.5", "0.17", "3.1", 10)),
    "b18": (("53.8", "0.20", "8.5", 0), ("60.4", "0.22", "8.5", 14)),
}


def _cells(technique) -> Cell:
    return (
        f"{technique.pct_full:.1f}",
        f"{technique.fragmentation_rate:.2f}",
        f"{technique.pct_not_found:.1f}",
        technique.num_control_signals,
    )


def format_row(row) -> Tuple[Cell, Cell]:
    """A :class:`repro.eval.table.BenchmarkRow` in :data:`TABLE1` form."""
    return _cells(row.base), _cells(row.ours)
