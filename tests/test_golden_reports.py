"""Byte-exact golden digests of `verify` reports.

Each case runs the CLI in-process and compares the SHA-256 of the report
it writes, together with its exit code, against a pinned value.  The
reports cover every claim and variant at the default budget and under
tight `--max-terms` budgets, so the statuses, `decided` and `expected`
values, notes, enclosures and undecided-row shapes are all pinned.
"""

import contextlib
import hashlib
import io

import pytest

from jacsum.cli import main

# (theorem, --to, --max-terms or None, --format) -> (sha256 of stdout, exit code)
GOLDEN = {
    ("2.1", 40, None, "json"): ("d644472e70bc9a21298259fb1aba76eaa6bce8cc5967f862cf45ade94045afa6", 0),
    ("2.1", 24, 1, "json"): ("31477fe2c265e755a9d5010a9758e59ea0300d1378c346cac5cafef50b975c8f", 3),
    ("2.1", 24, 2, "json"): ("c2b8d87f2bb078b9433ca3adf4e4ed523edaff14f38427e827e0c058a23151dd", 0),
    ("2.1", 24, 3, "json"): ("ff232ba3f6fd97dfe9b9f24f234d1766a7c727e3687f3ee7f613b1b80ecf7e95", 0),
    ("2.1", 24, 5, "json"): ("bf7df2ef3c7b42dc5a2a6ec1a13a4a28a37ce4c1f592ee3d3e370c3bbb0cc613", 0),
    ("2.1", 24, 9, "json"): ("ddc692644905e73a45fe9fecfd1301a8819a7386383c6f7bf663a37a2c9e0751", 0),
    ("2.1", 24, 17, "json"): ("ddc692644905e73a45fe9fecfd1301a8819a7386383c6f7bf663a37a2c9e0751", 0),
    ("2.2", 40, None, "json"): ("eda4c145e2a09b5d282a00ab24011336355ab1faa0437430b5959c35e4ed8c38", 2),
    ("2.2", 24, 1, "json"): ("8e7d96952386a036d605fe945d49e15803a4403c2f0a1ae50a6f5e380560effa", 3),
    ("2.2", 24, 2, "json"): ("eb4b8414ca0d9ea812611960cbb3f5d43c75891ee8849de399625d0af1fae6ad", 3),
    ("2.2", 24, 3, "json"): ("4875f6aa6da3c93d23b406ecc7ef0e3ed6aa13efd289b4214a15cde257302c7f", 2),
    ("2.2", 24, 5, "json"): ("a423051493a763434739634c7ed036cf749913fe1f852747a4e8d210f8261e60", 2),
    ("2.2", 24, 9, "json"): ("ef495185c90cdac239bc0b3eaf30b986b1c7316582a35bd48c431f615e26db24", 2),
    ("2.2", 24, 17, "json"): ("dfb05bec0c4eaa8596967da385b68f4937a05055a668f8775e94dcd98d100da4", 2),
    ("3.1", 40, None, "json"): ("e3bda851b1ac998cfdc94c6ac0a4b67cdc5e7282557a1646c1a158c8db630c74", 2),
    ("3.1", 24, 1, "json"): ("9b26c8665d1e440e9034dd90459aa953602d45f7e5ebd9ecd1096494ee603874", 3),
    ("3.1", 24, 2, "json"): ("ae0bc15551c380f7505afcf67eb0b310d333beaeb510ff4f349a0a7795c069c3", 3),
    ("3.1", 24, 3, "json"): ("ae313fc6edd8302f0b02d331ceda0d4318dc52a618ddbbbd5dfa112ddd68a23d", 2),
    ("3.1", 24, 5, "json"): ("bb93e2081c9cf482de4cea30516a9f16c88ba0e58d37221127f6a8d7c6ef9331", 2),
    ("3.1", 24, 9, "json"): ("62462c125a75c5c6f237b3a76ec67ec38f7edc2f28611d4b00d637af1a367dc2", 2),
    ("3.1", 24, 17, "json"): ("e07a3285d27f1805791f4ee08ad37fb92ac15fa5efa2eab8cb2b34e4aed01c2a", 2),
    ("3.1", 40, None, "plain"): ("f5a6fc821887a27381b58941ee9d9d3b62c90ad0a48f852682c660db9cffb299", 2),
    ("3.1", 40, None, "csv"): ("0a9e408718779510aa4cdd13a539be11fa0de685d06fb559f76c6b86ce2ef46f", 2),
    ("3.2", 40, None, "json"): ("44c0bba58c1b1be0d87a5ea20df0a4f165c83da216188ac9e8dddbdf80230772", 0),
    ("3.2", 24, 1, "json"): ("f72ca174eba80fa935ab5ba85489b508e94fe20d67b70e42748480012925494d", 3),
    ("3.2", 24, 2, "json"): ("18fa02309a117ba79c40f3712eedfa7f0fde45f31f219b8a376a1bf13dcee63e", 3),
    ("3.2", 24, 3, "json"): ("c531a3ada49b51ce1135ba9d6cf992d34eb74f1ce7804e0b9c318fa7d6948f82", 3),
    ("3.2", 24, 5, "json"): ("575dee7cdf52a99e71db53c9abb8462f5e359cafb2d7192cd255bdeb6b0c96ee", 3),
    ("3.2", 24, 9, "json"): ("776d9e8dd9ea73713b252fbae5fe28f5158c7526c33eeeed5b9cf4f9ade23198", 3),
    ("3.2", 24, 17, "json"): ("494be88ad00ae5961e8873cfcf05b6fbbb4a80169550e37108853ebc8c4b3d60", 3),
    ("3.3", 40, None, "json"): ("19f0ba8dd27b69a935be83031c7fc4353348e118a22244acc378d4069ffa2832", 2),
    ("3.3", 24, 1, "json"): ("d5bd7e9abc21b77077fd41ed55cb4c06b39d2101bbc703f23f8c9aadfad8f661", 3),
    ("3.3", 24, 2, "json"): ("15024494b0d1f83df7d85241128b2dcd7a28baa99a461d2139c4fa9793bb1a45", 2),
    ("3.3", 24, 3, "json"): ("9d5ec0c501f18eff27b7a355372717256d7c9953b4d1ed61460b199b44ada0b4", 2),
    ("3.3", 24, 5, "json"): ("d085d9a9a9d8eb2a41d8cfc63fb5d2adc92aa804b63944431039323452b29a17", 2),
    ("3.3", 24, 9, "json"): ("a0402cf25f21603e90a9ed59469dacd6422f67da4c8f16baa7e5cae3def56c4b", 2),
    ("3.3", 24, 17, "json"): ("5c045f057a8d4a3f399fc36543e0ed7f836725e9d805e8013b3e01b213677927", 2),
}


@pytest.mark.parametrize("case", sorted(GOLDEN, key=str), ids=str)
def test_verify_report_matches_golden_digest(case):
    theorem, hi, max_terms, fmt = case
    argv = ["verify", "--theorem", theorem, "--from", "1", "--to", str(hi),
            "--variant", "both", "--format", fmt]
    if max_terms is not None:
        argv += ["--max-terms", str(max_terms)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert (hashlib.sha256(out.getvalue().encode()).hexdigest(), code) == GOLDEN[case]
