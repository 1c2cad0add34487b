"""Type checking for a dependently typed calculus modulo rewriting.

The kernel checks terms against user-declared theories, where a theory
is a signature plus rewrite rules and definitional equality is
beta-rewrite convertibility.  The package ships two worked theories, a
finite-model layer for validating their soundness lemmas, and scans for
normalization and inhabitation.
"""

from .terms import (
    App,
    Const,
    Context,
    FVar,
    KIND,
    Lam,
    Pi,
    RewriteRule,
    TYPE,
    Term,
    Theory,
    Var,
)
from .reduction import Fuel, FuelExhausted, convertible, normalize
from .syntax import parse_judgement, parse_term, parse_theory, print_term
from .theories import builtin_theory, load_theory
from .typecheck import check, check_rule, check_theory, infer

__version__ = "0.1.0"

__all__ = [
    "App", "Const", "Context", "FVar", "Fuel",
    "FuelExhausted", "KIND", "Lam", "Pi", "RewriteRule", "TYPE", "Term",
    "Theory", "Var", "builtin_theory", "check", "check_rule", "check_theory",
    "convertible", "infer", "load_theory", "normalize", "parse_judgement",
    "parse_term", "parse_theory", "print_term", "__version__",
]
