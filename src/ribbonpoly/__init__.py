"""Polynomial invariants of ribbon graphs on surfaces and pseudo-surfaces.

Modules:

* :mod:`ribbonpoly.ribbon` -- signed rotation systems, boundary tracing,
  duality, partial duality, contraction, quasi-trees and activities.
* :mod:`ribbonpoly.packaged` -- weighted vertex/boundary partitions and the
  packaged deletion/contraction calculus.
* :mod:`ribbonpoly.poly` -- exact sparse polynomial arithmetic.
* :mod:`ribbonpoly.invariants` -- the three evaluation pipelines and the
  specializations.
* :mod:`ribbonpoly.fileformat` / :mod:`ribbonpoly.cli` -- the `.rg` text
  format and the command line front end.
"""

from .ribbon import RibbonGraph, RibbonGraphError
from .packaged import PackagedRibbonGraph, WeightedPartition
from .poly import HalfExpPoly, MultiPoly, parse_poly

__all__ = [
    "RibbonGraph", "RibbonGraphError", "PackagedRibbonGraph",
    "WeightedPartition", "MultiPoly", "HalfExpPoly", "parse_poly",
]

__version__ = "1.0.0"
