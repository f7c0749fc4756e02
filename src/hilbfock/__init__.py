"""Exact Heisenberg-Fock engine for the cohomology rings of Hilbert schemes
of points on surfaces and the deformed orbifold rings of symmetric products."""

from .errors import (EliminationError, EngineError, ModelError,
                     UnknownCoefficientsError, WeightError)
from .fock import FockSpace, FockVector
from .models import builtin_model, load_model
from .partitions import GenPartition, PartitionFunction
from .rational import Q
from .ring import FHRing, LehnEngine, RingEngine, StructureTable
from .surface import BasisElement, GradedClass, SurfaceModel, validate_model
from .vertex import (OperatorExpression, SparsePolynomial, apply_operator,
                     chern_class, chern_operator, lehn_apply, phi_map)

__version__ = "0.2.0"

__all__ = [
    "BasisElement", "EliminationError", "EngineError", "FHRing", "FockSpace",
    "FockVector", "GenPartition", "GradedClass", "LehnEngine",
    "ModelError", "OperatorExpression", "PartitionFunction", "Q",
    "RingEngine", "SparsePolynomial", "StructureTable", "SurfaceModel",
    "UnknownCoefficientsError", "WeightError", "apply_operator",
    "builtin_model", "chern_class", "chern_operator", "lehn_apply",
    "load_model", "phi_map", "validate_model",
]
