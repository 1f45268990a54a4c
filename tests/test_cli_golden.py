"""Golden digests of the exact CLI outputs.

The sha256 of every exact JSON document the CLI prints for the nine
gallery systems, the thirteen census witnesses and the four catalog paths
is frozen here, so a refactor of the exact core must reproduce each
document byte for byte.  Portrait SVGs are not frozen: their coordinates
come from floating-point integration and depend on the platform's libm.

To regenerate after an intended output change, run this file as a script
and paste the printed dictionary over ``GOLDEN``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from typing import Dict, List, Tuple

import pytest

from lvcompete import PORTRAIT_GALLERY, SystemParams, four_case_catalog, sign_census
from lvcompete.cli import main


def system_args(p: SystemParams, b_flag: str = "--b", a_flag: str = "--a") -> List[str]:
    return [b_flag, f"{p.b1},{p.b2}", a_flag, f"{p.a11},{p.a12},{p.a21},{p.a22}"]


SYSTEMS: Dict[str, SystemParams] = {
    **{label: entry.params for label, entry in PORTRAIT_GALLERY.items()},
    **{"census" + "".join(s.glyph for s in triple): params
       for triple, params in sorted(sign_census().items())},
}
SYSTEM_COMMANDS = {
    "classify": ["classify", "--json"],
    "equilibria": ["equilibria", "--json", "--include-off-quadrant"],
    "nullclines": ["nullclines", "--json"],
}


def invocations() -> Dict[Tuple[str, str], List[str]]:
    out = {(command, case): argv + system_args(params)
           for command, argv in SYSTEM_COMMANDS.items()
           for case, params in SYSTEMS.items()}
    for entry in four_case_catalog():
        out[("sweep", entry.label)] = (
            ["sweep", "--json"] + system_args(entry.path.start)
            + system_args(entry.path.end, "--end-b", "--end-a"))
    return out


def digest(argv: List[str]) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    assert code == 0, f"{' '.join(argv)} exited {code}"
    return hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()


GOLDEN: Dict[str, str] = {
    "classify case1": "8dac6c9439f613de9650dd7d9ae258c7df8095a129987f00f73a458efc35419f",
    "classify case2": "34080afc27e3bde5f74d55732bf711ef3003dc5a488d660c6c09f649cc4128a9",
    "classify case3": "31b3209e70c6d9ef285e89e729f6383c17c9aa5f9f2247ed2e419a3b2005ab8f",
    "classify case4": "a88281f08442c78a5dce2db99f0017f136a99a9f90b07bb2e73abb4d2e09a7de",
    "classify case5": "635f6855dd78d1871325817c1f708f9a1e70d50e17a9f28bd518ef7f142477bc",
    "classify case6": "6a941b58c343c87b59b8fb971e8620e30eaa96e8913a4ced0d8c01bb2817a738",
    "classify case7": "959576da5aa4f7278139c99e2b7d3355c436e8c677c266c3ca4639bef2f40fd2",
    "classify case8": "89c0c726a79bfa164073146b612cef0b45fe0a3d84838d604d27bace15d97a29",
    "classify case9": "bcd4dbf471efc232c08649d21cd7a868c65682dda2a861afa846a82384bb1b47",
    "classify census---": "2fe2a3ce8c7b5fcedb0f9fc3a40817f99a00495ce76de7b20506b3b4241dad84",
    "classify census--0": "1d684ea81d66d6456ed723b4047a8ea4bb8b817d162fcb097cc63f658c2e4429",
    "classify census--+": "a27fda9f3f9eec42b6d23159952ff36ec88bc5a138a115b92a5414702676ceab",
    "classify census-0+": "0ad56b5a043f0848b62ab46eb366dc0ee3c2dcfcef909072cfdb16671e92ee4f",
    "classify census-++": "28b5e78fec0c84cf74a1837ebfdeaa40623ad0eaa29441e8fc7a930c10e0ead8",
    "classify census0--": "59aa249e279a27d0f0286a9c824719b65229cb18e9d937a61d910d405a771361",
    "classify census000": "15c3c7460c27e6436a5c279af4ed0fea95f45f4ba70a8946254a0a9ee8d13f0a",
    "classify census0++": "018bf4270e50a92312a8c7d07f9c89ced13951eb19f98b130ebf3e6a1b3cf5e1",
    "classify census+--": "4568b2d3d3115da5967813e18b546238555321ff393641d1439eb10195f42740",
    "classify census+0-": "b518550c7ba03530e7e6520bc010f6a21a77a6056f16867b863e0bccc7786c9b",
    "classify census++-": "34079da9c486a206abf8f6ab7c353bd83dbe380bbb012de62d714bf74a7677c9",
    "classify census++0": "88ce6cfaf6c85b016294f7f2495f15a6a42eefac537161df7a74b3e1d9b045cb",
    "classify census+++": "6e886ee016c5dfab94055f6a6d052bddd441f98864a3faf82556be39748d5bb8",
    "equilibria case1": "307da6c9ce8311231e2448662f0df2a6edb054fbb24d851ca32c7a69555f7b8b",
    "equilibria case2": "bc7b357ab1a33e51a8a966f299bd111eaae1b1e120fb228c20f304ee7a1b75cf",
    "equilibria case3": "49ae239294c5f9cafcc24fae9e174b9ed1a79a029c73284a12a3431f31dc6c0a",
    "equilibria case4": "59f9edf8b958de566f9348dc00ecd0fcc616842a1ac0352aba8b6dbb5e69f0e0",
    "equilibria case5": "305499ddb32b13076bdd6e26f97baaf5a93d725282ebfd1b9c306004595b54b5",
    "equilibria case6": "e027bcc4351acf7c0eedb679daa8079b1c0b198d9e6025a1c4f52b89ff30d539",
    "equilibria case7": "6b54d2763da3a6af66c7dd49f5fb6fa525f3f93dd75a3d40dcac066e0764f040",
    "equilibria case8": "603ad2d4707e3b0a4db2934e5bfad1ae2484dfc0e9a0c1b246ab4bd4adab93d9",
    "equilibria case9": "6cb9e4a596670afb774ec227a735e8e6fac333a2c9a05b220ee6615af97681c6",
    "equilibria census---": "f66c8546b959ca26d8075c957196e3b32e002ae652f3ed7d094b8cf68a4d3b64",
    "equilibria census--0": "226592cd397d111de52bc9937d2692b69d1233028e97c5aca930843a267f35db",
    "equilibria census--+": "7884108eb9dc2a83e01dc11d47cb64257a131f8b6f4070ed9e9254de3d6d8bf1",
    "equilibria census-0+": "7f3e38b9a45c3531ee5a8828ecbed54e392bcb2926491241f4009a8d2dfde2fb",
    "equilibria census-++": "25e93c8798ec3cfdf7a849faab316cb85b22bf5540b12f4a922b815c937bbeb6",
    "equilibria census0--": "0da5fe2c6a6327070d8a02ffd834d74639506951908636038d31ed193c6467f8",
    "equilibria census000": "08e7e63c4eceb8ad5ff6b916deab04302722f7da5e37056c96a6d9fe7232d7f6",
    "equilibria census0++": "25b30320a52e0d0d1cf6e51e0c0273692381a812de61fc19053ca5287f94755c",
    "equilibria census+--": "326c2980752ad9eb95a9bdf3a8d14a7cd6ec60d564ca832423a859671c900399",
    "equilibria census+0-": "c6bae0dc00c6cbd1690851821ad7c64f1d5f7ce0f2acac2549b8f71ad5295381",
    "equilibria census++-": "1dec50589ebf980b36d881af3d92468058c1cfd46d309f03b21e09c33c6cfac3",
    "equilibria census++0": "ac4acc076217247542076dec418f80335c597374fe08dc1296950bfca004fcde",
    "equilibria census+++": "7735e11e51a929035482fc00c460a39a543572070ba87c0007933fc16cd8d769",
    "nullclines case1": "c2c097f2c33ba2ea99f6590438fd9efa2dc78a871c1293e4c99fcba8a893a08e",
    "nullclines case2": "50da06cf114d6fdc3aa32da7b6c2edbfcd18632a530ba019db2dc17a0c34ba2a",
    "nullclines case3": "3782e4f67d75b8d562478d39e974589e4fd69c2955ec4c01645c35b333238a2c",
    "nullclines case4": "1b867695797c310a4ed168d42622a1795a0a783cf130c8ef8440f5c2bdb0363b",
    "nullclines case5": "de18c3d192d4283ed6eee9bc0e320b517833af221747852dd25076faf20c0328",
    "nullclines case6": "f5e00017aab8bfe09a4d68ebb028ac83f27e7b6b6b5c1ce55a63f81699c8821f",
    "nullclines case7": "519d2553787af53d641ec5762c6c2dea08dee95f0c5e9904f557e1918be6e312",
    "nullclines case8": "172d4315f349b40def16670ef12968ac6d68730d48e0b3765d6f9312f86a4670",
    "nullclines case9": "e5a7897b17dd9a20199abc457b60456f7b6a20f732b896a689cfa27be76d4077",
    "nullclines census---": "40263dd3a7fb2a0890861fc957b9d2f8df3416c14a01ea3f8205854990475dd1",
    "nullclines census--0": "0cb811ad315d444375e4c7a2a77306e1732cca7d6d3863ca4969b61b4d7cd1fd",
    "nullclines census--+": "6db96181190b846a060a860d75eb1ef78797643b591c7cef3eba31101525ad92",
    "nullclines census-0+": "fc39a162081378878f36326ab98b71a6e16513f0e553606e126038321c3319e3",
    "nullclines census-++": "1b08afbdb5d826cae5073ffa70734892b7740fb05150583da1ea7a571606a48a",
    "nullclines census0--": "5c683a66a47ebcbda04d54c121f5dd0d2f7972a2e8cd6e54388ab384f8d303bd",
    "nullclines census000": "943b291b55c1b13e54ac98abc860ca583d76b410e702064baf68cd5e51553bc3",
    "nullclines census0++": "d9572c9d2bc3436ca47c494526513089a69c394c4bf1d071b9b88cf712e9b6af",
    "nullclines census+--": "fc07665d89c32fd6bea28d115b231977f9056dbe16224d4ddfcbfe9d38046782",
    "nullclines census+0-": "1a1c7a8582d024adc71b982381065cfd60b28be09775eb51604dcd4c0de7be8c",
    "nullclines census++-": "5befd1621e78273823e3874e146983eb9d3b8147693cbd5e835e32a86ebd9248",
    "nullclines census++0": "7824fa7038729a68d1709ecaec464c51416b3e8697c4d51632ef77bbde67cc89",
    "nullclines census+++": "8f5753e418f51f12e91e124a26d167af36ba62df54995545e0b765178fe495ef",
    "sweep coexistence-to-axis2-dominance": "d2532f06b245f67734fed74c8e60d17baf1690db2fd994934f918f1b6a55fedc",
    "sweep coexistence-to-axis1-dominance": "7481e2646f150ff94aab0027332f55f8526f634dfd4dd14938d06dd32d67c67d",
    "sweep bistability-to-axis2-dominance": "f1cbb1467f427f9889547948a983da6a9bce37bb3f9f0699a5d3e034e7568122",
    "sweep bistability-to-axis1-dominance": "7edefff4304b78f8649444d1080ef818926d882ca5aaa7cb39804fa5044dc817",
}

INVOCATIONS = invocations()


@pytest.mark.parametrize("command,case", list(INVOCATIONS), ids=lambda v: v)
def test_cli_output_matches_golden_digest(command, case):
    key = f"{command} {case}"
    assert digest(INVOCATIONS[(command, case)]) == GOLDEN[key], \
        f"`lvcompete {command}` output changed for {case}"


if __name__ == "__main__":
    print("GOLDEN = {")
    for (command, case), argv in INVOCATIONS.items():
        print(f'    "{command} {case}": "{digest(argv)}",')
    print("}")
