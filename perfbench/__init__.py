"""Repository benchmark (see run.py and README.md)."""
