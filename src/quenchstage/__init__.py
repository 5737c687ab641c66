"""Stagewise-rescaled solver and diagnostics for a 2D nonlocal MEMS deficit
equation: fixed-stage energy-dissipative stepping, 12-point stage transfer,
trigger detection, physical-time accumulation, and defect accounting."""

__version__ = "0.1.0"
