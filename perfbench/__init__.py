"""Seeded benchmark of the repro package: see README.md."""
