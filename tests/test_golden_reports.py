"""Byte-exact golden digests of CLI reports.

Each case runs the CLI in-process and compares the SHA-256 of the report
it writes, together with its exit code, against a pinned value.  The
reports cover every claim and variant at the default budget and under
tight `--max-terms` budgets, so the statuses, `decided` and `expected`
values, notes, enclosures and undecided-row shapes are all pinned.

A second table pins the verdict projection of the same reports: every
field except the enclosure endpoints `lo` and `hi` (the truncation index
`terms` stays).  It changes only when a verdict, a note or the truncation
schedule changes, not when the series arithmetic yields different but
equally sound endpoints.

Two more tables pin the `identities` report, from a few rows up to the
43k-row sweep `--to 1024 --cassini-max 256`, and the `seq`, `poly` and
`sum` reports, each in all three formats.
"""

import contextlib
import csv
import hashlib
import io
import json

import pytest

from jacsum.cli import main

# (theorem, --to, --max-terms or None, --format) -> (sha256 of stdout, exit code)
GOLDEN = {
    ("2.1", 40, None, "json"): ("ae60d847ee2ca193d316ebb85a2c2db6a64bfa615f2658585532a636f1981203", 0),
    ("2.1", 24, 1, "json"): ("54e21018f8cb52ef0bb81d19ba6cc87024c4db8094f453fc658385ee0ab25658", 3),
    ("2.1", 24, 2, "json"): ("fe51628a805e4d1ba56136ecc7a3adc64075e9bc570067be8b1eba7b14c8da09", 0),
    ("2.1", 24, 3, "json"): ("fe40c5da7a03912594043aed5da6714f0f543cea76c1cb006855d643e36d0112", 0),
    ("2.1", 24, 5, "json"): ("8f424a5d7458da5f37c78280598cc2e0c5693c9df45340626c0439c6b13a857d", 0),
    ("2.1", 24, 9, "json"): ("d8323d10dc69c6a92bfa51a85d17ff40808d2b7c28b47aa53f522a6b2f38a196", 0),
    ("2.1", 24, 17, "json"): ("d8323d10dc69c6a92bfa51a85d17ff40808d2b7c28b47aa53f522a6b2f38a196", 0),
    ("2.2", 40, None, "json"): ("0359022b0d7466099715e8d91fd7b8e3a2376ee6a5ec8a2b738f63cb5dfcd33a", 2),
    ("2.2", 24, 1, "json"): ("04c81f049c3ce38878b5c89964cd019d5d872dadb9dcd4e0564834f345db7b82", 3),
    ("2.2", 24, 2, "json"): ("d510597688f28f5a946db481bc6ff09821b2feb4970c6e6c5219df0aa43462b9", 3),
    ("2.2", 24, 3, "json"): ("51591eb4c281f52d9c364a862b4794cb2eccd5c9a84c6108437438d72132afdd", 2),
    ("2.2", 24, 5, "json"): ("a2d340d36c33da9d71eee03e37924a28463e69e3185b95b0d2b74d39d7a22a21", 2),
    ("2.2", 24, 9, "json"): ("4bf75348f8fc30b53fd998fe0963ba06bef45840765336a39af33a3491ebe0dd", 2),
    ("2.2", 24, 17, "json"): ("185ada48e30a9704b08409cb516682492c8f237004abf89a952f05f2698af301", 2),
    ("3.1", 40, None, "json"): ("641af2ce4a338704167c5e93f76ebb375ca061a20829dd480af20432e0deb666", 2),
    ("3.1", 24, 1, "json"): ("bbaa12846b1f74d97acd8caab013c72185577b5006effea0535e6e476fa4a55c", 3),
    ("3.1", 24, 2, "json"): ("d2183290146b566a7b92a7b8b09f411d42d7e1a7153e0374940a088c341db74f", 3),
    ("3.1", 24, 3, "json"): ("d77fc70fa587f66521e0054ae50d4f9be1c411771a0efee6cd4f38e7d8fb9bfc", 2),
    ("3.1", 24, 5, "json"): ("6e773a2bc6e176060d06c6b581c90f41de8dcb9ec0b97fdbe2d9b05bb6bba086", 2),
    ("3.1", 24, 9, "json"): ("ab7a39f5d4976e22316706a63cb97ef8394773f62d4e5d305f1575ed59d1fe31", 2),
    ("3.1", 24, 17, "json"): ("751b11ce57ddbd51db7993cf292cee2162b6ea2c75ee692ecc474d2442457e4b", 2),
    ("3.1", 40, None, "plain"): ("f5a6fc821887a27381b58941ee9d9d3b62c90ad0a48f852682c660db9cffb299", 2),
    ("3.1", 40, None, "csv"): ("44e4a732ea66ae5b483042bf01084401e85225bd2e41b5b0338bb56252aca471", 2),
    ("3.2", 40, None, "json"): ("722e96497ea39cb82288d45c52899fd828ff1b7cf7483b606ffd478db6008bf5", 0),
    ("3.2", 24, 1, "json"): ("c1112b4b040c7d362770e96784e385b74112459f2f310297c69d271df61b88be", 3),
    ("3.2", 24, 2, "json"): ("bea7efe1083f59aa05681e69c5effb4ae4a611fe1ec8a44508c516ba45861b77", 3),
    ("3.2", 24, 3, "json"): ("1b81f6b1da89b1ffb2e7bb748c45632dec8207b9fcd9d1242accf3570af11b2c", 3),
    ("3.2", 24, 5, "json"): ("502fd6953cfaef0c08091c73021ec55f8cfe35d9a6eebeb9162d70b976a2872d", 3),
    ("3.2", 24, 9, "json"): ("3970256277f4657f18ec1ffaebd142bf9b49664be562935e732ee959a16719ad", 3),
    ("3.2", 24, 17, "json"): ("b611774553ed9a64f7a89a07272642100e1c8019860c7f62bba633fd647c214f", 3),
    ("3.3", 40, None, "json"): ("482807a52e118f51f35656d7c10da9a36f29e5623545540aab9ddf3899d34db6", 2),
    ("3.3", 24, 1, "json"): ("254574e7dc86dff52792c5ae475a8a42812462f06a01aa783024dcd05a74a813", 3),
    ("3.3", 24, 2, "json"): ("3f9dc2bca3812556a5798fb434428d3b06093407700b9c8470734b958888e14b", 2),
    ("3.3", 24, 3, "json"): ("a62f0baf12ddd85e3adb734795b833b9a95a2f43c955b5da7d4e70ca1cdca26e", 2),
    ("3.3", 24, 5, "json"): ("329c86c3b5dbdad732c3800b66cb70fe8b7bcb6edfa18c187989f8b0fc5e6097", 2),
    ("3.3", 24, 9, "json"): ("3944170893f0562d4055acfec8e238048b4c7c6f2490d51d6fa620ee1b2e9cfa", 2),
    ("3.3", 24, 17, "json"): ("8c2eec34fc2351ac04f0ba149dc4c33baea96e92dbf8f226dedbfef85387da68", 2),
}


# the same cases -> (sha256 of the report without enclosure endpoints, exit code)
VERDICTS = {
    ("2.1", 40, None, "json"): ("c699a242f5fecfcf8ea8ff0121508edd64ebd9c97518a9a2859a5e3dc5b85b30", 0),
    ("2.1", 24, 1, "json"): ("0f8b308bacc5fee3376c27437d3be6f767379aa8f23d3ce4416b69b14b501aed", 3),
    ("2.1", 24, 2, "json"): ("626b9a1b96ebe1eac7c670b43b75e386f3ef8f69d7c6cc8b68a033a8808543cb", 0),
    ("2.1", 24, 3, "json"): ("9b6433bf45e529f8fd5d2a73d4f4f2e7f4360a452807b6824563c752e6a92f21", 0),
    ("2.1", 24, 5, "json"): ("38e9b822ede4ef44d3f84ab0f8b4976bca8e3d1c2edaf8d853c317147bf1bf0c", 0),
    ("2.1", 24, 9, "json"): ("0cf38378dc36f9569c7fd9d437ef2938ae4b91886393f39118ff958f9231af46", 0),
    ("2.1", 24, 17, "json"): ("0cf38378dc36f9569c7fd9d437ef2938ae4b91886393f39118ff958f9231af46", 0),
    ("2.2", 40, None, "json"): ("a25499146544417d294969b096d478f718de352b5e5004a653089061c69b9817", 2),
    ("2.2", 24, 1, "json"): ("2dbb5fd9e6ce03580c22c17520bb20e0bebb8479a877028c995f9151c6b830ac", 3),
    ("2.2", 24, 2, "json"): ("6a652e476216b53371dd108588cdeb44de4803ffda8d70094ca7ebd5e960ceaa", 3),
    ("2.2", 24, 3, "json"): ("bd6f6d71be8823289efba53fecc4d9455cdf32cc6fd909e0f6a768c2bb211299", 2),
    ("2.2", 24, 5, "json"): ("21f68dca7b2cbf7d43a4d07db2fb308c76541dbfde89cd8f7f681ed14ad23a6a", 2),
    ("2.2", 24, 9, "json"): ("75f198c9b5a53b29fd86a02aec83d08de298cb0f88b1707f350e156565378c6c", 2),
    ("2.2", 24, 17, "json"): ("916300e76cbc81f5028d96156fa7ded62a0205ed9ae0ecbc6288b1acb330932f", 2),
    ("3.1", 40, None, "json"): ("280d1a284e4a911a450fa59a73ccbd550ab7e1553ef193a0e4a8a6c2fdc44147", 2),
    ("3.1", 24, 1, "json"): ("36c89af9d124f312ab2cb251993eeff66a7849dad3406d0440b73ca05dc6f92d", 3),
    ("3.1", 24, 2, "json"): ("05ca28ae58b620b75e4c8b0634e69cf09e09180398b90a13006dea384961aa9d", 3),
    ("3.1", 24, 3, "json"): ("557a74c5187b1fa62a24a5a6ffd2b7a1dd95240273311abb8cd2aa3634325f9b", 2),
    ("3.1", 24, 5, "json"): ("880343562900ea7204b6f8edec68d9327156b4c764f9c7bb79e2425ec2a8b2cb", 2),
    ("3.1", 24, 9, "json"): ("88a3837dbacc5460f9d09d2a2e78364db655f72a69c548b02cec1ea58dd797eb", 2),
    ("3.1", 24, 17, "json"): ("6fb35648de2217974e5e112c85228c8ad5f067d6b919d8cfd49bf9eb61cb6282", 2),
    ("3.1", 40, None, "plain"): ("f5a6fc821887a27381b58941ee9d9d3b62c90ad0a48f852682c660db9cffb299", 2),
    ("3.1", 40, None, "csv"): ("3ba6a356b970bc3d3afe4a81e5791492d2ca1ca9ba635f42c76f60c107cd49ff", 2),
    ("3.2", 40, None, "json"): ("b2311e9b11b5f50ea76e5135993e5cfe7214ce37fe759bba4ceb3a9effb597be", 0),
    ("3.2", 24, 1, "json"): ("3fa364ebe82d9f3e5eff834db47164e6bae4d6c5fc905c2207761aae1b042ce4", 3),
    ("3.2", 24, 2, "json"): ("3b58225cbfbc1f03b9ed90ee343a88f5952fed8386917b63efde9a11cc1cae1c", 3),
    ("3.2", 24, 3, "json"): ("7535733ef0ba68ee4c0088545aff0adddf8c7a8a5cf445efa45ada7b7c9e336c", 3),
    ("3.2", 24, 5, "json"): ("d94587a27f1f4e2bde8ab206a2e751a47fa2b6a7272a8a23e559cc537dacab41", 3),
    ("3.2", 24, 9, "json"): ("d429edf204ae1ca8c3f5a47e83ba0f2e8493d3b39e98ca02005b13ecceda2aea", 3),
    ("3.2", 24, 17, "json"): ("0a39d5d78a8793fcb890960abf57f874526fcf42839f820bb1ffaa7a6bf60a76", 3),
    ("3.3", 40, None, "json"): ("9bbd1fd7e6f31493d097c1447b8cf1d6d3f910d20ac389262099d7e5665de59c", 2),
    ("3.3", 24, 1, "json"): ("f1b574562ab3765977aa6cd1c94275680ed53b6f835620544e7cbc90b9c38419", 3),
    ("3.3", 24, 2, "json"): ("cf72ce7afaf8dc26272eeddad240c732763bbfaf451ac4e93eb30e928a9386a6", 2),
    ("3.3", 24, 3, "json"): ("e2540c728a9be9bcd8c24d1d67f8284293faf27a0476eaeb1cb9e131d7d0452a", 2),
    ("3.3", 24, 5, "json"): ("a09c2d3b57b66a5989b91a1ec680ff877a517b89341f24dccea4acb9829f96d1", 2),
    ("3.3", 24, 9, "json"): ("71fc77f51307af55770c0cf98d5a21890d48b1b9fefb8281c71bb2716759b3c4", 2),
    ("3.3", 24, 17, "json"): ("20a56b932089c73fc70409e913d947b8af03f7407fcaa0f4d73f3717139cc947", 2),
}


# `identities` reports: (--to, --cassini-max, --format) -> (sha256 of stdout, exit code)
IDENTITIES = {
    (1024, 256, "json"): ("2e3caef97e07f00fb2c0ba1bf245f023b31382854c0d089cba62be02bc29978e", 0),
    (64, 32, "csv"): ("54c89fbdb89f7c68c0a89a49af135309855af8c0bb4171c075379a7a1ee004df", 0),
    (64, 32, "plain"): ("b99c658a1a1230f0c8a51cecacea38ee83a27ac3f0e6d135009b27a9d6c378da", 0),
    (2, 3, "json"): ("1d8835c18ecd07a13ad31ac4ce8e523050ef0422b36213bc2e20749984dca509", 0),
    (2, 3, "csv"): ("ff68ed13a48ac88422039b73e03565d812a54c7e0a134eea27493c46ec85eab5", 0),
    (2, 3, "plain"): ("ed0da4db018e9b9ec2cb143e479908829ede265c1f2667fa242197ed7eeafac5", 0),
}

_SEQ = ("seq", "--from", "0", "--to", "200")
_POLY_3 = ("poly", "--x", "3", "--from", "0", "--to", "60")
_POLY_M2 = ("poly", "--x", "-2", "--from", "5", "--to", "40")
_SUM = ("sum", "--family", "alt-recip-squared", "--start", "6", "--width", "1e-30")
_SUM_CAPPED = ("sum", "--family", "recip", "--start", "4", "--width", "1e-40", "--max-terms", "3")

# (argv without --format, --format) -> (sha256 of stdout, exit code)
OTHERS = {
    (_SEQ, "json"): ("f1cd414f4351aeb21da549e84ac745aeed0cceef77a1638a0851bb12548c06a3", 0),
    (_SEQ, "csv"): ("7a8389f18989ed46b3c9fd59bdb1e13fdcbbd557455816c563d01f8c4cc6332c", 0),
    (_SEQ, "plain"): ("28c86aa7987c1df7ca5bf9480643f6e88c89183dd34d38328c7ee7651fbf3464", 0),
    (_POLY_3, "json"): ("0b44441838ce3e14eb498810acd0592e9b9372eff266984c48260230cd3c0069", 0),
    (_POLY_3, "csv"): ("e6b3106e895c75224ca1468dcb02bbfe5e0f76bd0a036ca9ebfc78cd5cf4ae18", 0),
    (_POLY_3, "plain"): ("2354b7229f1d06dcfb91488d36ea23a840b7f1de025e18b9ee95c390d6964ad3", 0),
    (_POLY_M2, "json"): ("76e871f61c59f3b5011157f44374dbb40a270c821f2397a1388e6479ec539086", 0),
    (_POLY_M2, "csv"): ("6d54cb77193da6a1b33be5695835da5b2e09cb3bd87d3f95d91882143d2fd7be", 0),
    (_POLY_M2, "plain"): ("fef53d94a5432e0a34a5264b7dbc2285aeeedbd2b4bd75b2814576e3aa28f258", 0),
    (_SUM, "json"): ("de1e22113739f3001554ed99afc82ba66b5ac9f2619b82f54bcf7a66d4eaf9a2", 0),
    (_SUM, "csv"): ("182bcca482df0933a630037c86bdf057bc39a8a44fced271d641114384cbb251", 0),
    (_SUM, "plain"): ("7c0c70b4daf099929cb9f60fd93c187a98b8d42c63a0ebd8270f9083d4565814", 0),
    (_SUM_CAPPED, "json"): ("de8c0ea8ead1fb8ef521a78ba4538ad2451e0b6e113ec5337d30742718ba7c60", 3),
    (_SUM_CAPPED, "csv"): ("a730353117ab1f9dd24cb09d70ec53181dc173887e70ac70eaf337f2decd6689", 3),
    (_SUM_CAPPED, "plain"): ("2f2634994cf616fce4bf4b156f2cf8cf4aa0cedd5162ff410ac17cc4fe6db911", 3),
}


def _main(argv: list[str]) -> tuple[str, int]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return out.getvalue(), code


def _run(case) -> tuple[str, int]:
    theorem, hi, max_terms, fmt = case
    argv = ["verify", "--theorem", theorem, "--from", "1", "--to", str(hi),
            "--variant", "both", "--format", fmt]
    if max_terms is not None:
        argv += ["--max-terms", str(max_terms)]
    return _main(argv)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _without_endpoints(report: str, fmt: str) -> str:
    """The report with every enclosure's `lo` and `hi` removed."""
    if fmt == "json":
        rows = json.loads(report)
        for row in rows:
            if row["enclosure"] is not None:
                del row["enclosure"]["lo"], row["enclosure"]["hi"]
        return json.dumps(rows, separators=(",", ":"))
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(report)))
        keep = [i for i, col in enumerate(rows[0]) if col not in ("lo", "hi")]
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([[r[i] for i in keep] for r in rows])
        return buf.getvalue()
    return report  # plain reports print `terms` but no endpoints


@pytest.mark.parametrize("case", sorted(GOLDEN, key=str), ids=str)
def test_verify_report_matches_golden_digest(case):
    out, code = _run(case)
    assert (_sha256(out), code) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(VERDICTS, key=str), ids=str)
def test_verify_verdicts_match_golden_digest(case):
    out, code = _run(case)
    assert (_sha256(_without_endpoints(out, case[3])), code) == VERDICTS[case]


@pytest.mark.parametrize("case", sorted(IDENTITIES), ids=str)
def test_identities_report_matches_golden_digest(case):
    to, cassini_max, fmt = case
    out, code = _main(["identities", "--to", str(to), "--cassini-max", str(cassini_max),
                       "--format", fmt])
    assert (_sha256(out), code) == IDENTITIES[case]


@pytest.mark.parametrize("case", sorted(OTHERS), ids=lambda c: " ".join([*c[0], c[1]]))
def test_other_report_matches_golden_digest(case):
    argv, fmt = case
    out, code = _main([*argv, "--format", fmt])
    assert (_sha256(out), code) == OTHERS[case]
