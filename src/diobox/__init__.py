"""Exact solver for nonnegative integer solutions of linear Diophantine
systems, built on Hermite normal forms and lattice box reduction.

Every public name resolves on first use: ``import diobox`` loads no
submodule, and ``diobox.solve`` (or ``from diobox import solve``) imports
the submodule that defines the name, once, through the module
``__getattr__`` below (PEP 562). So a ``diobox solve`` process compiles
only the modules its command needs.
"""

from importlib import import_module

__version__ = "0.1.0"

# every public name, in ``__all__`` order, and the submodule that defines it
_HOME = {
    "AffineLatticeRep": "reference",
    "BasisPartition": "lattice",
    "BoxReduction": "reference",
    "CapExceededError": "errors",
    "ConditionReport": "cone",
    "DimensionMismatchError": "errors",
    "DioboxError": "errors",
    "FacetCheck": "cone",
    "GcdNotOneError": "errors",
    "GenerationFailedError": "errors",
    "InstanceFormatError": "errors",
    "IntMat": "linalg",
    "InternalError": "errors",
    "NonPositiveEntryError": "errors",
    "NotSquareError": "errors",
    "ProblemInstance": "solver",
    "RankDeficientError": "errors",
    "SingularError": "errors",
    "SolveOutcome": "solver",
    "SolveStatus": "solver",
    "SpecialBasis": "reference",
    "WrongRowCountError": "errors",
    "aliev_henk_p": "commands",
    "aliev_henk_t_bound": "commands",
    "box_reduce": "reference",
    "brauer_G": "frobenius",
    "basis_partition": "solver",
    "deep_cone_condition": "reference",
    "det_exact": "linalg",
    "f_chain": "frobenius",
    "frobenius_number_dp": "frobenius",
    "gcd_max_minors": "reference",
    "integer_solution_set": "reference",
    "partition": "lattice",
    "project_drop_m": "reference",
    "shifted_cone_report": "cone",
    "solve": "solver",
    "solve_rational": "reference",
    "solve_with_conditions": "solver",
    "special_basis": "reference",
    "verify": "solver",
    "xgcd": "linalg",
}

__all__ = list(_HOME)


def __getattr__(name: str):
    # called only for a name not yet in the module's globals; a submodule
    # name that is not in _HOME falls through to the import system, which
    # then imports it (``from diobox import lattice``)
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{home}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
