"""Kakeya sets for spheres and circles over finite fields of odd order.

The package builds the standard explicit constructions, counts points on
diagonal quadrics both by brute force and by the closed formulas, checks
the covering properties exhaustively or via stored witnesses, and searches
for minimal circular covers.  Everything is exact integer arithmetic on
top of small cached field tables.

Importing the package loads none of its modules.  The first touch of any
public name imports the library modules once and binds every public
name, so a process that only runs the command line pays for the modules
its subcommand uses, and a library caller pays for them all at once.
"""

__version__ = "0.1.0"

# each public name, under the module that defines it
_HOMES = {
    "constructions": (
        "ConstructionResult", "center_spherical", "circular_odd_power",
        "circular_prime", "circular_square", "hypersphere_union", "radius_spherical",
    ),
    "errors": (
        "BadDimensionError", "BudgetExceededError", "IdenticalSpheresError",
        "KakeyaError", "NonOddPrimeError", "NotANonsquareError",
        "NotASquareFieldError", "SizeCapError", "UsageError", "WrongDegreeError",
        "ZeroCoefficientError", "ZeroDirectionError", "ZeroRadiusError",
    ),
    "exact": (
        "BoundReport", "ceil_sqrt", "circular_lower_bounds", "exact_str",
        "prime_power_decompose", "spherical_kakeya_lower_bound",
    ),
    "field": ("Fq", "make_field"),
    "geometry": (
        "CircleSpec", "HypersphereSpec", "PointSet", "SphereSpec",
        "diagonal_count_bruteforce", "diagonal_counts_by_rhs",
        "hypersphere_ranks", "origin_norm_profile", "point_rank", "point_unrank",
        "sphere_intersection_size", "sphere_ranks", "translate",
    ),
    "scalar": ("DiagonalEq", "ScalarField", "diagonal_count_closed", "smallest_irreducible"),
    "search": ("SearchOutcome", "greedy_circular", "minimal_circular_exact"),
    "verification": (
        "KakeyaWitness", "diff_cover", "intersection_lemma_bound", "sum_cover",
        "verify_center_kakeya", "verify_intersection_lemma", "verify_radius_kakeya",
        "witness_from_json_dict", "witness_valid",
    ),
}

__all__ = sorted(name for public in _HOMES.values() for name in public)


def _bind_all() -> None:
    """Import every library module and bind every public name, in one go."""
    from importlib import import_module

    names = globals()
    for module, public in _HOMES.items():
        mod = import_module(f".{module}", __name__)
        for name in public:
            names[name] = getattr(mod, name)


def __getattr__(name: str):
    # called only for names not bound yet; the first touch binds them all
    if name in __all__ or name in _HOMES:
        _bind_all()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
