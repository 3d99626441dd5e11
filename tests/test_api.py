"""The package API: each public name is listed once, in its own module."""

import importlib

import pytest

import jacsum

MODULES = ("identities", "intervals", "sequence", "series", "theorems")

# every name the package exported while it listed them by hand
EARLIER_API = (
    "IdentityResult", "check_cassini", "check_lemma_1_1", "check_lemma_1_2",
    "check_lemma_1_4", "check_lemma_1_5", "check_step_2_1", "check_step_2_2",
    "check_step_3_1", "check_step_3_3", "identity_sweep",
    "NotInvertibleError", "RatInterval", "ceil_decide", "floor_decide",
    "interval_reciprocal", "rat_str",
    "jacobsthal", "jacobsthal_closed_form", "jacobsthal_poly", "jacobsthal_range",
    "Enclosure", "InverseEnclosure", "NeedMoreTermsError", "SeriesFamily", "SeriesSpec",
    "enclose_inverse", "enclose_sum", "enclosures", "partial_sum", "series_term",
    "tail_bound",
    "Status", "Verdict", "default_variant", "verify_cor_3_2", "verify_range",
    "verify_thm_2_1", "verify_thm_2_2", "verify_thm_3_1", "verify_thm_3_3",
    "__version__",
)


@pytest.mark.parametrize("name", MODULES)
def test_package_republishes_each_modules_public_names(name):
    module = importlib.import_module(f"jacsum.{name}")
    for attr in module.__all__:
        assert getattr(jacsum, attr) is getattr(module, attr), f"{name}.{attr}"


def test_package_keeps_every_earlier_public_name():
    missing = [attr for attr in EARLIER_API if not hasattr(jacsum, attr)]
    assert missing == []
