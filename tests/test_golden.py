"""Byte-identity gate: the pipeline's output files for every corpus program
under four configurations, pinned by SHA-256.

A change that is meant to keep behaviour (a refactor, a faster engine or
solver) must leave every digest as it is.  A change that alters outputs on
purpose updates the table and says why.  Every budget here is a work budget;
BUDGET_SECONDS is far above need, so the digests do not depend on machine
speed.
"""

import hashlib

import pytest

from mutkill import cli

import conftest as C

COMMON = "MAX_STATES = 300\nSTEP_BUDGET = 500\nBUDGET_SECONDS = 600\n"
CONFIGS = {
    "semu": "MODE = semu\nPP = 0.5\nRNG_SEED = 3\n" + COMMON,
    "infection-only": "MODE = infection-only\n" + COMMON,
    "vanilla": "MODE = vanilla\n" + COMMON,
    "semu-seeded": "MODE = semu\nPP = 0.5\nRNG_SEED = 3\n" + COMMON,
}
# configurations that start from a seeds file: every input at its low bound,
# then every input at its high bound
SEEDED = {"semu-seeded"}
FILES = ("mutants.tsv", "tce.tsv", "tests.txt", "matrix.csv", "minimized.txt")

GOLDEN = {
    ('infection-only', 'abs'):
        "0bc0f6f806381c6d901ba824bb4e5f60f6670edea47846f6a3f34b58e5b20847",
    ('infection-only', 'callfn'):
        "d3f0c8cd1afb03d82e079b3c6cd33c9fc7da09ccdd056d408452657c7b88aada",
    ('infection-only', 'clamp'):
        "027fdd261b30932164521f1bfcd44d5add52143cabfde00971ab6c8faf5e9c42",
    ('infection-only', 'classify'):
        "34b6867d876d5a1e3359494be97cf13a9300793ec9c7bc1938c347a9eb704f4c",
    ('infection-only', 'countdown'):
        "480ff42f369b61b8d84dd5fde7f9d074139261b3c8c893e5968c79943b8595b3",
    ('infection-only', 'divmod'):
        "b46b2f858ecf55e377f05936c17a29ed43087482cde68bfd0e5cfc6d8f21e0ef",
    ('infection-only', 'fig1'):
        "50d09c0603b735c9f803672c0dbfd8349c00f66804d8d68fc24bbf6c532b9df2",
    ('infection-only', 'mask'):
        "a60d312b7643e28e6f0cac20383017bbd9a4cd5ce3cd43dd1446f247da4b9e03",
    ('infection-only', 'max2'):
        "c5ad425f5af2e553c943123212367401af0bbb02445b8d12bd1f5cb15bf5eec8",
    ('infection-only', 'parity'):
        "490bc6d4b81d5bffa1438acb38345b2bdf65692e36f7c0e0db9185f3e666659b",
    ('infection-only', 'poly'):
        "3382971d650fcdf8f8bcca1d0672ce1066ef9bd380c7ebf2d9298be15077ea16",
    ('infection-only', 'sign'):
        "d62f9b05462c55deb9f0bd0ff13395d85548253201951131a36e289dc2e3a53f",
    ('infection-only', 'sumloop'):
        "6679876221590add7ffed764738c135c8255cbd0d37bcea630826f520decc457",
    ('semu-seeded', 'abs'):
        "be9adc2b6e6d463306b6dd2b5ac31667d3b49f3d330a8cee8a1961662bd83a70",
    ('semu-seeded', 'callfn'):
        "ecb8e55e143dc7da9830c26071541bdb60c7cf95bfe4510fd8ec55eb2e97c5fa",
    ('semu-seeded', 'clamp'):
        "32d1dac3302274e5540d22c1dc767a72f28f0a59468b709590fa9bc227f85de5",
    ('semu-seeded', 'classify'):
        "18be4d76f81c9d2ff4753feb19c79fa4653349c661a4e49125f9035b5bff51c9",
    ('semu-seeded', 'countdown'):
        "7f5b6053e3b1bac3dee240b03488d860eb4c4f0a25c5b2c65e79be0d594ae8bc",
    ('semu-seeded', 'divmod'):
        "a3ef4e734aa5cccc32a70788e13c9f66282a2b6cbfc133e37a367578156f383b",
    ('semu-seeded', 'fig1'):
        "3a0845ff3a60b0187fecb256c62d8bc89ab1e32c5f57c9d39be06d726c0b4a53",
    ('semu-seeded', 'mask'):
        "741a2bc6f8d8c61ffad13be5743ad34080856720c14d20da431fdf364ea047f9",
    ('semu-seeded', 'max2'):
        "24051d7d6216a0ac624e7ad7243eebbc1dc574ca32cf6c0a9a5a6f6b75f4d349",
    ('semu-seeded', 'parity'):
        "64bab411e20ff942bc10985bee208f068690478fc745b08b188b94f45a9483de",
    ('semu-seeded', 'poly'):
        "3a90ef179debfdb9b409020df5d2868ca6a790d4eeca04e5b0b36972a5ef6a03",
    ('semu-seeded', 'sign'):
        "abb06cf8ad1ab47a7fab71f917819ea549b8a33270ef1bc04696eeb5c4babaa0",
    ('semu-seeded', 'sumloop'):
        "f21b20ae24d02b4542d6a2d713d9e8beebd56d4954f319c8615d4c2deff7c2ef",
    ('semu', 'abs'):
        "36ab23bcff38b6951a3a22d3b1a0b51f9de055629a9755c4777ba6f6c318b614",
    ('semu', 'callfn'):
        "a7200afa910b83f560eae5c796b94c2f18050fb4d1da6cd29cc6c82f74c649e3",
    ('semu', 'clamp'):
        "003cdfe66f05248f2696ffcfc0830979bc6e2f16d157c0a949eee53045f698de",
    ('semu', 'classify'):
        "a1fd72da32a1a0ab0d82133eca0d1f22a179673baa6aed39868137547f1a1417",
    ('semu', 'countdown'):
        "c786d2e2e38cdeead7f26373e259fc65867df5c9af100290e9bcf5e0304ef688",
    ('semu', 'divmod'):
        "bac54d5d00ca1386a2f7576f70b39e3abb9f3d4d8dcd86f431eb8ab04bb1e112",
    ('semu', 'fig1'):
        "e23b0e596bc59cb328578fb3a80558fb4fdbc67ffc29c51618cab41770c3bba9",
    ('semu', 'mask'):
        "dc057eaa36e63f55bb89587f2c03cc5ffbc842043825a3c1cb7c8e29c4294772",
    ('semu', 'max2'):
        "00772dd7d3147ded7b6151b567adb0b207ce9023780ebc0e21b8fa8c07369a73",
    ('semu', 'parity'):
        "b20ac9a09db16e4ac676be6043db131eac10736b6087f2b3e48c0565806a9dd5",
    ('semu', 'poly'):
        "4cca0f8e5744c8a136540f57d25b9283469a5b28ca230da0e39a8f7aebe48b65",
    ('semu', 'sign'):
        "cf9f1bb3128116f75256308de6bfd8c2d7d376b5668e78b1e31ea1bfa71a5c6e",
    ('semu', 'sumloop'):
        "e0e56a1768834d93cebecf22c45ad304c8d472a0b383259d09d8275aed32d2be",
    ('vanilla', 'abs'):
        "866752b792865f03201d36ffef0d280aa26058185ac89d080f2bd1fd3cd468a3",
    ('vanilla', 'callfn'):
        "b0ec57c01a3bff3a10b735cf382effe3d61c8f5eb923bb6488d278cf822e589b",
    ('vanilla', 'clamp'):
        "cee134b497e7e10a3b2a0cb11ab59654c11386e38e5eb5b1b382a5fe4b1918cf",
    ('vanilla', 'classify'):
        "fc962617386148cf76a85e70d2ea55ea8d7dc5d3e1966ccdccbcc900bb011066",
    ('vanilla', 'countdown'):
        "5a5f68ff1ef801c64e78475fd505e8e641e3ec830fb78c93cb5fb5d2966e9018",
    ('vanilla', 'divmod'):
        "3910bbd04bb76b17d34733b27b51552e7c27ea724c96a730490edf5cb9b41477",
    ('vanilla', 'fig1'):
        "b04fa24664858025d531942637e666a544acf13ed4b7b3e6bdf35c97a2616af3",
    ('vanilla', 'mask'):
        "4fb487c9b97db5f2b621c2db0c7a280abfa61ab0867e298c780fc4a9eca3445b",
    ('vanilla', 'max2'):
        "19f24e3eca4d79946fddc348ed32e2588dd349b1be0d0434578e6af811daf7a5",
    ('vanilla', 'parity'):
        "71cbc997317119c2150a0b2204f23f5e533f2842bb76e0e7455b37810d038f46",
    ('vanilla', 'poly'):
        "d5832941d50ea591832b5a001049e5157398aad29c5d61ff2900c70250b2cae8",
    ('vanilla', 'sign'):
        "5d1e8652f60e28c86a2e9e600f99d32373ff9283c92fd8cdf7c88f3984dbb945",
    ('vanilla', 'sumloop'):
        "c771108a14957cc761dc2a5442a0720ea40b40ea49b090950c6bc9acf9d7d1ce",
}


def bound_seeds(name: str) -> str:
    inputs = C.load_lts(name).inputs
    return "".join(", ".join(f"{v}={dom[i]}" for v, dom in inputs) + "\n"
                   for i in (0, 1))


def outputs_digest(out_dir) -> str:
    h = hashlib.sha256()
    for name in FILES:
        h.update(name.encode() + b"\0")
        h.update((out_dir / name).read_bytes())
        h.update(b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_corpus_outputs_unchanged(config, tmp_path):
    got = {}
    for name in sorted(C.ALL_PROGRAMS):
        out = tmp_path / name
        seeds = None
        if config in SEEDED:
            seeds = tmp_path / f"{name}.seeds"
            seeds.write_text(bound_seeds(name))
        manifest = cli.parse_config(CONFIGS[config], program=C.corpus_path(name),
                                    out_dir=str(out),
                                    seeds=None if seeds is None else str(seeds))
        cli.run_pipeline(manifest)
        got[name] = outputs_digest(out)
    want = {name: GOLDEN[(config, name)] for name in sorted(C.ALL_PROGRAMS)}
    assert got == want
