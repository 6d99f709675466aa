import bergeham
from bergeham import berge, canonical, spectral

# reference implementations that live in tests/oracles.py, not in the package
TEST_ORACLES = (
    "brute_force_oracle",
    "rotate_path_to_cycle",
    "RotationResult",
    "isomorphism",
    "are_isomorphic",
    "threshold_verdict",
)


def test_public_names_resolve_once_and_leave_the_test_oracles_out():
    assert len(set(bergeham.__all__)) == len(bergeham.__all__)
    for name in bergeham.__all__:
        getattr(bergeham, name)
    for module in (bergeham, berge, canonical, spectral):
        assert [name for name in TEST_ORACLES if hasattr(module, name)] == [], module.__name__
