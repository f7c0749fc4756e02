"""Exact Heisenberg-Fock engine for the cohomology rings of Hilbert schemes
of points on surfaces and the deformed orbifold rings of symmetric products."""

from .errors import (EliminationError, EngineError, ModelError,
                     UnknownCoefficientsError, WeightError)
from .fock import FockSpace, FockVector
from .models import builtin_model, load_model
from .orbifold import OrbifoldParam, orbifold_engine, theta_map
from .partitions import GenPartition, PartitionFunction
from .rational import Q
from .ring import FHRing, LehnEngine, RingEngine, StructureTable
from .surface import BasisElement, GradedClass, SurfaceModel, validate_model
from .vertex import (OperatorExpression, SparsePolynomial, apply_operator,
                     chern_class, chern_operator, lehn_apply, orbifold_operator,
                     phi_map)

__version__ = "0.1.0"

__all__ = [
    "BasisElement", "EliminationError", "EngineError", "FHRing", "FockSpace",
    "FockVector", "GenPartition", "GradedClass", "LehnEngine",
    "ModelError", "OperatorExpression", "OrbifoldParam", "PartitionFunction",
    "Q", "RingEngine", "SparsePolynomial", "StructureTable", "SurfaceModel",
    "UnknownCoefficientsError", "WeightError", "apply_operator",
    "builtin_model", "chern_class", "chern_operator", "lehn_apply",
    "load_model", "orbifold_engine", "orbifold_operator", "phi_map",
    "theta_map", "validate_model",
]
