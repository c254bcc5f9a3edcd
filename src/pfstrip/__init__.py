"""Batch simulator for a singular phase-field system on a periodic strip,
with dynamic boundary conditions on the two boundary circles, conservative
implicit time stepping, and a steady-state solver for long-time checks."""

__version__ = "0.1.0"
