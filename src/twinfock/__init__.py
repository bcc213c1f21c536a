"""Sparse Fock-space simulation of loss-resilient multimode photon-pair states.

Builds the N-pair entangled state family over paired signal/idler mode
registers, pushes the signal through a beamsplitter loss channel, and
evaluates target-detection error rates both in closed form and through
brute-force Fock-space oracles.  Each name is imported from its own module.
"""

__version__ = "0.1.0"
