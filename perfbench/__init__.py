"""End-to-end and per-layer benchmark of srfgo; entry point is run.py."""
