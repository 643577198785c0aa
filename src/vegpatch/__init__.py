"""Vegetation-water dynamics with non-local dispersal on finite habitats."""

__version__ = "0.1.0"
