"""Deterministic interpreter for the IR subset."""
