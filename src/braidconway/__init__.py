"""Exact Conway polynomials of braid closures.

Braid words in Artin or band generators map to reduced Burau matrices
over the integer Laurent ring, and a normalized determinant gives the
Conway polynomial of the closure.  For positive band words on three
strands an independent skein resolution-tree engine computes the same
polynomial, and the command line tool cross-checks the two routes.

The package root exports the documented API below; everything else
imports from its submodule (``braid``, ``burau``, ``polyring``,
``skein3``, ``claims``, ``cli``).
"""

from .braid import parse_band
from .burau import conway_via_burau
from .polyring import LaurentPoly, NotInImage, ZPoly, laurent_to_z
from .skein3 import (
    conway_via_skein, full_twist_difference, parse_word, resolve, tree_to_dot
)

__version__ = "0.1.0"

__all__ = [
    "LaurentPoly",
    "NotInImage",
    "ZPoly",
    "conway_via_burau",
    "conway_via_skein",
    "full_twist_difference",
    "laurent_to_z",
    "parse_band",
    "parse_word",
    "resolve",
    "tree_to_dot",
]
