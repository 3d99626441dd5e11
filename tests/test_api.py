"""The package API: each public name is listed once, in its own module."""

import copy
import importlib
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import jacsum
from jacsum.report import ReportRow

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


def test_cli_imports_only_the_standard_library():
    # a fresh interpreter: what importing the CLI adds to sys.modules, so
    # modules that site's .pth files import at start-up are left out
    code = ("import sys; before = set(sys.modules); import jacsum.cli; "
            "print(*sorted(set(sys.modules) - before))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    added = out.stdout.split()
    assert "jacsum.cli" in added
    foreign = [name for name in added
               if name.partition(".")[0] not in {*sys.stdlib_module_names, "jacsum"}]
    assert foreign == []


def _added_by(*imports: str) -> list[list[str]]:
    """What each import statement, run in turn in a fresh interpreter, adds
    to sys.modules."""
    code = "import sys\n" + "".join(
        f"before = set(sys.modules); {stmt}; print(*sorted(set(sys.modules) - before))\n"
        for stmt in imports)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return [line.split() for line in out.stdout.splitlines()]


def test_start_up_imports_only_what_it_uses():
    bare, report, theorems, cli = _added_by(
        "import jacsum", "import jacsum.report", "import jacsum.theorems", "import jacsum.cli")
    assert [name for name in bare if name.startswith("jacsum.")] == []
    # the report's annotations name records of every layer, but it loads none of them
    assert [name for name in report if name.startswith("jacsum.")] == [
        "jacsum.intervals", "jacsum.report"]
    assert "jacsum.theorems" in theorems and "jacsum.identities" not in theorems
    assert "jacsum.cli" in cli
    assert {"dataclasses", "inspect"}.isdisjoint(bare + report + theorems + cli)


def test_star_import_binds_every_public_name():
    ns: dict = {}
    exec("from jacsum import *", ns)
    # a star import never binds a name that starts with an underscore
    assert [name for name in EARLIER_API if not name.startswith("_") and name not in ns] == []
    for name in MODULES:
        module = importlib.import_module(f"jacsum.{name}")
        assert all(ns[attr] is getattr(module, attr) for attr in module.__all__), name
    assert set(jacsum.__all__) <= set(dir(jacsum))
    assert len(jacsum.__all__) == len(set(jacsum.__all__))


def test_submodules_resolve_after_a_bare_import():
    code = ("import sys, jacsum; "
            f"print(all(getattr(jacsum, m) is sys.modules['jacsum.' + m] for m in {MODULES!r}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["True"]
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        jacsum.no_such_name  # noqa: B018


def _records() -> dict:
    """Per record class: a record, its fields in order, and one field with
    another value for it."""
    spec = jacsum.SeriesSpec("recip", 3)
    enc = next(jacsum.enclosures(spec))
    return {
        "RatInterval": (jacsum.RatInterval(Fraction(1, 3), 2), ("lo", "hi"), ("hi", 3)),
        "IdentityResult": (
            jacsum.check_lemma_1_1(3),
            ("identity", "n", "holds", "lhs", "rhs", "relation", "k", "applicable", "note"),
            ("holds", False)),
        "ReportRow": (ReportRow("sequence", {"n": 1, "x": 2, "value": "1"}),
                      ("kind", "payload"), ("payload", {})),
        "SeriesSpec": (spec, ("family", "start"), ("start", 4)),
        "Enclosure": (enc, ("spec", "lo", "hi", "p", "terms"), ("terms", enc.terms + 1)),
        "InverseEnclosure": (
            jacsum.enclose_inverse(jacsum.SeriesSpec("alt-recip", 4)),
            ("spec", "mode", "decided", "interval", "sum_enclosure"), ("mode", "ceil")),
        "Verdict": (
            jacsum.verify_thm_3_1(4)[0],
            ("theorem", "n", "status", "variant", "decided", "expected", "enclosure",
             "discrepancy", "note"), ("note", "changed")),
    }


@pytest.mark.parametrize("name", ["RatInterval", "IdentityResult", "ReportRow", "SeriesSpec",
                                  "Enclosure", "InverseEnclosure", "Verdict"])
def test_records_behave_field_by_field(name):
    rec, fields, change = _records()[name]
    assert type(rec).__name__ == name
    frozen = name not in ("IdentityResult", "ReportRow")
    assert repr(rec) == f"{name}(" + ", ".join(f"{f}={getattr(rec, f)!r}" for f in fields) + ")"
    assert rec != tuple(getattr(rec, f) for f in fields)  # only a record of its class is equal
    for again in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
        assert type(again) is type(rec) and again == rec and not again != rec
        assert hash(again) == hash(rec) if frozen else again.__hash__ is None
    changed = copy.copy(rec)
    object.__setattr__(changed, *change)
    assert changed != rec and not changed == rec
    assert rec._replace(**dict([change])) == changed
    with pytest.raises(TypeError):
        rec._replace(no_such_field=0)
    if frozen:
        with pytest.raises(AttributeError):
            setattr(rec, *change)
        with pytest.raises(AttributeError):
            delattr(rec, change[0])
        assert getattr(rec, change[0]) != change[1]
    else:
        with pytest.raises(TypeError):
            hash(rec)
        setattr(rec, *change)
        assert rec == changed


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="interpreter has no int-to-str digit limit")
def test_records_print_long_integers_under_a_low_digit_limit():
    big, digits = 10**5000, "1" + "0" * 5000
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        result = jacsum.IdentityResult("x", big, False, Fraction(-1, big + 1), 2)
        text = repr(result)
        row = repr(ReportRow("identity", {"n": big, "lo": "1", "enclosure": {"terms": -big}}))
    finally:
        sys.set_int_max_str_digits(before)
    assert text == (f"IdentityResult(identity='x', n={digits}, holds=False,"
                    f" lhs=Fraction(-1, {digits[:-1]}1), rhs=2, relation='==', k=None,"
                    " applicable=True, note='')")
    assert row == (f"ReportRow(kind='identity', payload={{'n': {digits}, 'lo': '1',"
                   f" 'enclosure': {{'terms': -{digits}}}}})")


def _keyword_records() -> dict:
    """Per frozen record class: keyword arguments with a distinct value per
    field, and the values its fields must hold after the constructor's
    conversions."""
    spec = jacsum.SeriesSpec("recip", 3)
    enc = jacsum.Enclosure(spec, 5, 7, 3, 4)
    iv = jacsum.RatInterval(1, 2)
    return {
        "RatInterval": (dict(lo=Fraction(1, 3), hi=2), dict(hi=Fraction(2))),
        "SeriesSpec": (dict(family="alt-recip", start=7),
                       dict(family=jacsum.SeriesFamily.ALT_RECIP)),
        "Enclosure": (dict(spec=spec, lo=5, hi=7, p=3, terms=4), {}),
        "InverseEnclosure": (
            dict(spec=spec, mode="floor", decided=3, interval=iv, sum_enclosure=enc), {}),
        "Verdict": (
            dict(theorem="3.1", n=11, status=jacsum.Status.REFUTED, variant="corrected",
                 decided=12, expected=13, enclosure=enc, discrepancy=True, note="spot"),
            {}),
    }


@pytest.mark.parametrize("name", ["RatInterval", "SeriesSpec", "Enclosure", "InverseEnclosure",
                                  "Verdict"])
def test_frozen_records_store_each_keyword_in_its_own_field(name):
    # the constructors hand their values to the shared store in `__slots__`
    # order; a value passed in another order lands in another field
    kwargs, converted = _keyword_records()[name]
    rec = getattr(jacsum, name)(**kwargs)
    assert {field: getattr(rec, field) for field in type(rec)._fields} == kwargs | converted
