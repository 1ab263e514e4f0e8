"""Metrizability toolkit for SO(3)-invariant torsion-free affine connections.

Given the twelve coefficient functions k1..k12(t, r) of a spherically
symmetric connection, the package computes its curvature profile, decides
whether a (nontrivially) Finsler-metrizing function exists, assigns the
Class 1..5 label, decides pseudo-Riemann metrizability, constructs the
metrizing Finsler function and/or affinely equivalent metric where they
exist, and certifies every construction numerically.
"""

__version__ = "0.1.0"

from .scalar_field import (DomainError, ExpressionError, ExpressionSyntaxError, Partials,
                           ScalarField, UnboundParameter, UnknownIdentifier, parse, to_source)
from .geometry_core import (BracketVector, ConnectionProfile, CurvatureGrid,
                            CurvatureProfile, InsufficientSamples, K10Degenerate,
                            NonFiniteData, TangentPoint, UnsupportedConnection,
                            bracket_vectors, curvature_grid, curvature_profile,
                            sample_tangent_points, spray_coefficients, vertical_holonomy_rank)
from .classifier import (ClassificationReport, InternalInconsistency, MixedClass,
                         Tolerances, assign_class, check_finsler_constraints, classify)
from .metrizer import (DeltaVanishes, GradientNotClosed, LambdaEqualsOne,
                       LambdaNotConstant, MuNotConstant, NotClosed,
                       NotRiemannMetrizable, PathDependent, PotentialSystem,
                       RiemannForm, SingularQuadratic, build_class3, build_class4,
                       build_class5, build_exponential, build_power_law)
from .geodesic_engine import (ChartExit, StepFailure, Trajectory, integrate_finsler,
                              integrate_spray)
from .verifier import (CheckResult, ResidualReport, SampleJets, berwald_check, check_hessian,
                       check_homogeneity, check_horizontal_constancy, levi_civita_roundtrip)

__all__ = [name for name in dir() if not name.startswith("_")]
