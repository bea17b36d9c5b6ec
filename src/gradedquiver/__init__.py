"""Exact computer algebra for graded algebras given by quivers with relations."""

from .errors import (GradedQuiverError, MathRefusal, InputError, FieldMismatch,
                     DimensionMismatch, WindowError, UnsupportedRadical)
from .linalg import Field, QQ, GF, Matrix
from .quiver import Quiver, Arrow, Path
from .algebra import GradedAlgebra, Relation, AlgElement
from .gmodule import GradedModule, GradedMorphism, standard_module, direct_sum, zero_module

__all__ = [
    "GradedQuiverError", "MathRefusal", "InputError", "FieldMismatch",
    "DimensionMismatch", "WindowError", "UnsupportedRadical",
    "Field", "QQ", "GF", "Matrix",
    "Quiver", "Arrow", "Path",
    "GradedAlgebra", "Relation", "AlgElement",
    "GradedModule", "GradedMorphism",
    "standard_module", "direct_sum", "zero_module",
]
