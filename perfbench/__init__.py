"""End-to-end benchmark of the repro user paths (see run.py)."""
