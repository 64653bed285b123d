"""Small shared utilities (RNG plumbing, formatting)."""

from repro.utils.rng import as_generator, split_generator
from repro.utils.format import format_bytes, format_seconds, ascii_table

__all__ = [
    "as_generator",
    "split_generator",
    "format_bytes",
    "format_seconds",
    "ascii_table",
]
