"""Golden CLI reports: every ``verify`` action at small n and ``solve`` /
``check`` on each construction family, pinned by sha256.

A digest covers the exit code and the whole JSON report without its
``timing`` object.  ``verify`` commands run at ``--jobs 1`` and
``--jobs 2`` against the same digest, since reports do not depend on the
job count.  To re-record after an intended change of a report, run this
file as a script and paste its output over ``GOLDEN``.
"""

import hashlib
import io
import json
import os
from contextlib import redirect_stdout

import pytest

from berge import constructions
from berge.cli import main

VERIFY = [
    "verify theorem-uniform --n 6 --k 4",
    "verify theorem-uniform --n 7 --k 5",
    "verify theorem-shadow --n 5 --k 4",
    "verify theorem-shadow --n 6 --k 5",
    "verify remark --n 3 --k 3",
    "verify remark --n 5 --k 1",
    "verify remark --n 5 --k 2",
    "verify remark --n 5 --k 3",
    "verify remark --n 6 --k 2",
    "verify claims --n 5",
    "verify claims --n 9 --samples 60 --seed 11",
    "verify claims --n 12 --samples 250 --seed 1736",   # exits 1
]

FAMILY_ARGS = {
    "fano": [],
    "sts_bose": ["--n", "9"],
    "sts_skolem": ["--n", "13"],
    "disjoint_sts": ["--k", "7", "--copies", "2"],
    "star_k3": ["--n", "7"],
    "matching_k2": ["--n", "6"],
    "two_edge_clique": ["--n", "5"],
}

# circumference 3, yet `check claims` reports two claim-triple violations
# (see test_structure.py::test_claim_triple_no_false_positive_at_length_3)
L3_INSTANCE = "8 6\n0 1\n1 2\n0 2\n3 4 5\n3 6 7\n0 4 6\n"

INSTANCE_VERBS = ["solve longest-path", "solve circumference",
                  "solve has-path --k 3", "solve has-path --k 6", "check claims"]

GOLDEN = {
    'verify theorem-uniform --n 6 --k 4': '744238f85ce44628b72a3a4d28f815b070c7801a90d6016224b1f12431dbc28c',
    'verify theorem-uniform --n 7 --k 5': '60506680cb2f2434fe9291c88b9f61127acb5441b57238cf0048b0f769238c65',
    'verify theorem-shadow --n 5 --k 4': '4706a1700a6942a6b308d71229857882de8732d95000b4129d194c087dd5ee78',
    'verify theorem-shadow --n 6 --k 5': '57cdc6f2036db62cdf331a7f598866a735db9935b5f7150e44c8ca03260828f8',
    'verify remark --n 3 --k 3': '7768a821028d3c6f397dd65e1c71a3d1c606bd2c9d252a7791f30be1f3ac77cf',
    'verify remark --n 5 --k 1': '0528a299593bff7a69226e6ac928768ca53f774216ae9ff334598396ca0f359a',
    'verify remark --n 5 --k 2': 'b01f817d3df926a8e4c357a05da6a7be9ffe079235940eb07b16e18b33c8cb5f',
    'verify remark --n 5 --k 3': 'cfc38ed51697663d2c39bcd4f81541d230ef03b08332c45b183bb4f8944e7351',
    'verify remark --n 6 --k 2': '8cc482410e68188b2c7bdf0f1293454946168d2c4ead47c1b21831f1477d8fa7',
    'verify claims --n 5': '799312ea683eaacdf91cfabcc66c44f810fea13f6e04fdccb8f48b06f96d8386',
    'verify claims --n 9 --samples 60 --seed 11': 'ffc033b26c149926d21c37387d768745e0844318339f721c32a06dbc3a327c7b',
    'verify claims --n 12 --samples 250 --seed 1736': '5426bcc2e7a9f74d657106841b6f6465011c67876114f8bdba7a2fc4c4801712',
    'solve longest-path fano': 'b593580c59b7fedae2ff61c7a22eb930805caffd77fc5e68fe3c748bd5be8cd6',
    'solve circumference fano': 'ae6718b5e9925f51d698245520e7291ac0edc30dd6b9810c0c8e8e7589822937',
    'solve has-path --k 3 fano': 'a384a20141cac7a60d6516e95a236b07c1550eb0aa1218c44f15158b9269fcc1',
    'solve has-path --k 6 fano': 'ea52e7861c8d6ab3e89f913b0de170eb2d8c87a0705099f6fd3a5db5f1672671',
    'check claims fano': 'd82be2dadcfe03df32b0bf218a7c04b6140c38f496842a57a9f5d6787a32e1d1',
    'solve longest-path sts_bose': 'b2fea78d1b733196968e378e427aee70be4abb2d2288127e4e23edc6a91a27c0',
    'solve circumference sts_bose': '5256cb36c991fa73938fe1baef895f15b726692218b10aab89ee273b92cf1a24',
    'solve has-path --k 3 sts_bose': '903cf63131f566452753bbf598ac0b434b5057f9e916d0b459da8f366798967a',
    'solve has-path --k 6 sts_bose': 'a01a4db4ed92a0fd264fff93a86a9c0bc2c0529ce57295da985cc9a7cccc2f59',
    'check claims sts_bose': 'b30c2f85ccc6b9c50555566f6f7b3af7104c11e2712cded17ebbe365509efd1e',
    'solve longest-path sts_skolem': '42835644dff51ebf399d3f3dce95956f606c1ef8bf00f90a239d5317f08c93c1',
    'solve circumference sts_skolem': 'abf1daafc667be68fc322f188b1ddf7fc4ac5c11bc30778d80937e973ac2e827',
    'solve has-path --k 3 sts_skolem': 'dfece36f4048bf913ec0008c75dc4e401e809089659288a73a1b1af0d8168d10',
    'solve has-path --k 6 sts_skolem': '922bf1beb02d8b80eb7df62fe30f02c081495d4b27e37175c306dc037ae57eff',
    'check claims sts_skolem': '9c786ffeac201349dbfff309f9af96e7a6815cf3de6845662e2d35e93781fb00',
    'solve longest-path disjoint_sts': 'e4532c1aa84baf972b9144dca8abc8389e61b753e93e00913491c2de980a8879',
    'solve circumference disjoint_sts': '76b8f4b2313cfe83bc82a04b5f908d73abf5c1bbfdc32e48cf9ab3fd6c0d08a8',
    'solve has-path --k 3 disjoint_sts': '570f14be911e99829e85c38222d1731f8de879f3217a9ee5ed3768915b9a8e70',
    'solve has-path --k 6 disjoint_sts': '5e907f0f5fd37acaa030b5bb406bf32c56b9b4cec8ffdc751e76b156b8962e95',
    'check claims disjoint_sts': 'dfb5a1ef7a0adbaa0a36ac38b1d7677b048ac1d94c723d70204c283b0aa079b0',
    'solve longest-path star_k3': 'c4cfde14072384c39d47475e349db3d6c9904e7d6cdedbe85ccd1d355ab5fb84',
    'solve circumference star_k3': 'df8d4d05f05e395d78944682027df8301f8a47c82cb45f0c52e86debf5db3082',
    'solve has-path --k 3 star_k3': '8dc61dbd9ad88c2b7d0999026eb7bb0ceebd6dcce0d439b312b84c7d5e702490',
    'solve has-path --k 6 star_k3': 'de184f38779f06967bad7c5b6432949c29369d8a9ca8370ccb77175cb51c113a',
    'check claims star_k3': 'a0c9bb5a2003f0a44800bbd640ae6ca9ad46ced41e30cc26a57d743b7fe975e8',
    'solve longest-path matching_k2': '7ad1be494224626b2dd1b95db2aefd5f7a691f1265313076dc068d455f381637',
    'solve circumference matching_k2': 'c295304d9a01ff855d34569fb8a3774b193fc8442416098fdc96d00ff2e1e9fc',
    'solve has-path --k 3 matching_k2': '13e05576f74bf79bd0a1078317fafcfbcef605b423f9cb3d4da999cef0b7576a',
    'solve has-path --k 6 matching_k2': '685f88f3e41f8328d847f2680413e1d03fdecdbec8af3ce8ac5ec8ab62a1fae7',
    'check claims matching_k2': 'a86053371916472b26b6b84bd21f65b1a2f8f73694511c79ff24dfa2037fc5f5',
    'solve longest-path two_edge_clique': '4a3c37db4df007d8333604059a757b1dd1c224a18a01b17d913ea44b24f89fef',
    'solve circumference two_edge_clique': '560c09f721d0ac604b27b2709e639c17705205d5e02d98c5f639ba2b10a24cb9',
    'solve has-path --k 3 two_edge_clique': '2b3e7a1d9202c2e01cad639cf1a6b1ae1d3a863061eabd732f3dd5a2127002c4',
    'solve has-path --k 6 two_edge_clique': 'fefd38d86198a739b6b18f4faec34373e37fd03c37dc938f95997d083eb82d75',
    'check claims two_edge_clique': 'cd77f7236aff38c1e39869ec987cdd9b17b0f45753635b98d956194a2a5554c0',
    'check claims l3': 'c876671e6b583172aae54278c897b80b55a04958937eefa835196533dbccd93c',
}


def report_digest(argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    report = json.loads(out.getvalue())
    report.pop("timing")
    if "file" in report["command"]:
        report["command"]["file"] = os.path.basename(report["command"]["file"])
    text = json.dumps([code, report], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def family_file(directory, family) -> str:
    path = str(directory / f"{family}.hg")
    assert main(["construct", family, *FAMILY_ARGS[family], "-o", path]) == 0
    return path


def test_families_covered():
    assert set(FAMILY_ARGS) == set(constructions.FAMILIES)


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("command", VERIFY)
def test_verify_report_pinned(command, jobs):
    assert report_digest([*command.split(), "--jobs", jobs]) == GOLDEN[command]


@pytest.mark.parametrize("family", list(FAMILY_ARGS))
def test_instance_reports_pinned(tmp_path, family):
    path = family_file(tmp_path, family)
    for verb in INSTANCE_VERBS:
        words = verb.split()
        argv = words[:2] + [path] + words[2:]
        assert report_digest(argv) == GOLDEN[f"{verb} {family}"], verb


def test_length3_instance_report_pinned(tmp_path):
    path = tmp_path / "l3.hg"
    path.write_text(L3_INSTANCE)
    assert report_digest(["check", "claims", str(path)]) == GOLDEN["check claims l3"]


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        print("GOLDEN = {")
        for command in VERIFY:
            print(f"    {command!r}: {report_digest([*command.split(), '--jobs', '1'])!r},")
        for family in FAMILY_ARGS:
            path = family_file(tmp, family)
            for verb in INSTANCE_VERBS:
                words = verb.split()
                digest = report_digest(words[:2] + [path] + words[2:])
                print(f"    {verb + ' ' + family!r}: {digest!r},")
        path = tmp / "l3.hg"
        path.write_text(L3_INSTANCE)
        print(f"    'check claims l3': {report_digest(['check', 'claims', str(path)])!r},")
        print("}")
