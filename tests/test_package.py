import pkgutil
import types

import hodgecert


def test_all_names_every_public_name_once():
    """__init__ re-exports each module's __all__; every public name appears once."""
    public = {
        name
        for name, value in vars(hodgecert).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(hodgecert.__all__) == len(set(hodgecert.__all__))
    assert set(hodgecert.__all__) == public | {"__version__"}


def test_package_holds_only_what_the_certifier_runs():
    """Test-only code lives in tests/: the module set is pinned, and the
    names that moved to tests/lie_combinatorics.py or were deleted stay gone."""
    modules = {m.name for m in pkgutil.iter_modules(hodgecert.__path__)}
    assert modules == {
        "__main__",
        "_version",
        "cli",
        "cm_type",
        "errors",
        "hodge_report",
        "params",
        "scanner",
        "witness",
    }
    removed = {
        "BoundExceededError",
        "BoundViolatedError",
        "DegreeNotAboveQError",
        "DegreeTooSmallError",
        "DividesDegreeError",
        "DuplicateMultiplicityError",
        "EigenPair",
        "EigenSystem",
        "EquivalenceFailedError",
        "ExponentTooSmallError",
        "HyperellipticExcludedError",
        "InternalContradictionError",
        "LevelInconclusiveError",
        "NotPrimeError",
        "OracleDisagreementError",
        "ParityImpossibleError",
        "PreconditionViolatedError",
        "ProductHypothesisFailedError",
        "SelfConflictError",
        "as_eigen_system",
        "center_dim_product",
        "certificate_to_dict",
        "conditions_to_dict",
        "complement_free_check",
        "coprime_pair_check",
        "eigen_system",
        "floor_correction_vanishes",
        "floor_mult",
        "greedy_compatible_subset",
        "jacobian_dim",
        "multiplicity_hypotheses",
        "new_part_dim",
        "product_to_dict",
        "unitary_dims",
        "witness_to_dict",
    }
    assert not {name for name in removed if hasattr(hodgecert, name)}
    # one error class per CLI exit code
    assert hodgecert.errors.__all__ == ["InternalInvariantError", "ParameterError"]
