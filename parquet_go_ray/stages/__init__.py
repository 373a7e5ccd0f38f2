"""Encode-path stages: salting and the phase-1 / merge tasks."""
