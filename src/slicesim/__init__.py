"""Simulator and analytics toolkit for multi-queue admission control of network slices."""

__version__ = "0.1.0"
