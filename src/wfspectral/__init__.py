"""Spectral solver for multi-allelic diffusion transition densities.

The package imports nothing, so that the command-line front-end can pin
thread-count environment variables before any numerical library loads.
Modules are imported by name: `from wfspectral import spectral`.
"""

__version__ = "0.1.0"
