"""Entanglement cost of stabilizer generator sets.

Computes how many ebits (or edits, or entangled modes) a set of
stabilizer-style generators consumes, for binary, two-parity-check,
quaternary, qudit, continuous-variable, and convolutional inputs, and
certifies each count with the symplectic Gram-Schmidt pairing procedure
and brute-force oracles.  Import each name from the module that defines
it, such as ``ebitcalc.symplectic``; its ``__all__`` lists them.
"""

__version__ = "0.1.0"
