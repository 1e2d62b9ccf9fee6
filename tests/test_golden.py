"""Byte-identity gate: the pipeline's output files for every corpus program
under four configurations, pinned by SHA-256, and the engine's work counts
in `stats.txt` (every line but `wall_clock=`), pinned the same way.  A fifth
configuration explores with two seeds that the engine really follows, and
pins its tests and, apart, its work counts.  The benchmark's two-input
programs over the default domains, whose queries are large enough to run as
the solver's generated loop nest, pin their tests, kill matrix and work
counts as well.

A change that is meant to keep behaviour (a refactor, a faster engine or
solver) must leave every digest as it is.  A change that alters outputs on
purpose updates the table and says why.  Every budget here is a work budget;
BUDGET_SECONDS is far above need, so the digests do not depend on machine
speed.

`python3 tests/test_golden.py` prints the six tables for the checked-out
tree, from the same digest functions as the tests, and then the work counts
of every entry, one `stats.txt` line per row under the entry's key.  Diffing
that print-out between two trees shows which counter a re-pin moves.
"""

import hashlib
import os
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

import pytest

from mutkill import cli, symex
from mutkill.interp import run_lts

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

# `digest` of each run's `work_counts`: the engine's states, prunings,
# solver calls and tests per mutant, which the output files do not show
STATS_GOLDEN = {
    ('infection-only', 'abs'):
        "d2413175eb41ed0b615570192731b14b7eafcae2dd720c9391702182b1c7ae0e",
    ('infection-only', 'callfn'):
        "7ccbf7a699d7a9ff8de7608ea6638f523af67281074cc1d08fdbc8baaa20c060",
    ('infection-only', 'clamp'):
        "9ed104811825df9fba72dba37fc4b2fd2ad8ae5772b1ee5a3e35ed0d3209a07b",
    ('infection-only', 'classify'):
        "f6604e81114c8c75f050001056d0175f88fa7673edf30a6f93f7fb862f29b2c6",
    ('infection-only', 'countdown'):
        "3b6e4e70a170345c08bb7bd32f7e86c10d6922eb9596c7190a7e63a535dd534f",
    ('infection-only', 'divmod'):
        "3ea9733089efd1b84ed8010a3ac4120df150e077a9bc4e42d2a3758aaf059356",
    ('infection-only', 'fig1'):
        "59d783038177b173d8af0ef8a40b21035e6c3c17e90cdc6a8c586c8dadf1c734",
    ('infection-only', 'mask'):
        "a82c759dcde2f26fb358ae78c17ef88c8f8e93bd1d4f077b5303a30332c39916",
    ('infection-only', 'max2'):
        "9313410cec37fd3fb1bdbff1fa74815f698c83a369079196e2d5a503045154cf",
    ('infection-only', 'parity'):
        "8faf266cbe6a36e2d78e81b82bdeae3d3d6302d9c32ad7645767bf9fffe88d63",
    ('infection-only', 'poly'):
        "4734c571ba07a4795c9f8228144f4311e9e0c726fce39e491421233fbe2fa363",
    ('infection-only', 'sign'):
        "640f2f1069c2b6c7da9edf673948c0df4daac60e00ce53dee160422761129b12",
    ('infection-only', 'sumloop'):
        "90936ef4567e80bcf135423902af63ca5cb609527ab1d7036a8479c2e9ac97c9",
    ('semu', 'abs'):
        "28144ebebed7269a9e20c4911efa3de93208d2c8c5835b5846401558050b0d5d",
    ('semu', 'callfn'):
        "7d045de965a57b747c062b2e19b7e7de26b012948336f834e48b03cb49788d6b",
    ('semu', 'clamp'):
        "a26fd0297f9d233326f4c669b641b859a457f82d0a37c236c295a50305a489a8",
    ('semu', 'classify'):
        "e931848f435d61a98c4712ba0fb4ced06f5a90111519d02ef5e02e5bdf202096",
    ('semu', 'countdown'):
        "40db6ec2a389d2eabef3d6d434b9c26e1c46c285f4e0fa406fe2a33870855801",
    ('semu', 'divmod'):
        "bcf3ffb546ca584c8d6c43203e3fcc66711ba8580ab68002b9e6a192a237f052",
    ('semu', 'fig1'):
        "7c5d23a52704c0d9c7309ed22c512c7553e9c27920a0aa5fc08bd2f821f69f7e",
    ('semu', 'mask'):
        "336e172e6c909eb56efb4ce20d7bf2882fcd76dc5b1143e44448820b1223e4f7",
    ('semu', 'max2'):
        "3b7d2456dff77a623a00635ae4cfdcaf95a47eef1ef75c1e910a00742368e74d",
    ('semu', 'parity'):
        "d10ccaa9a2d977249fee2172eeb456fa04482792f34c6e270f81cc75c13ab25b",
    ('semu', 'poly'):
        "0f4b8a2adaf367200ce2a355f2e008da850d6477351a1c92e0c0658083863aa0",
    ('semu', 'sign'):
        "492f3dc6830927efd24ece5c2209d0c61209c2a5e3035d427b46fa8ca759b17f",
    ('semu', 'sumloop'):
        "359bf8c850c10731bb45c78b56cacc0120040979dfa4e75f6d4397fab97de4d2",
    ('semu-seeded', 'abs'):
        "28144ebebed7269a9e20c4911efa3de93208d2c8c5835b5846401558050b0d5d",
    ('semu-seeded', 'callfn'):
        "7d045de965a57b747c062b2e19b7e7de26b012948336f834e48b03cb49788d6b",
    ('semu-seeded', 'clamp'):
        "a26fd0297f9d233326f4c669b641b859a457f82d0a37c236c295a50305a489a8",
    ('semu-seeded', 'classify'):
        "e931848f435d61a98c4712ba0fb4ced06f5a90111519d02ef5e02e5bdf202096",
    ('semu-seeded', 'countdown'):
        "40db6ec2a389d2eabef3d6d434b9c26e1c46c285f4e0fa406fe2a33870855801",
    ('semu-seeded', 'divmod'):
        "bcf3ffb546ca584c8d6c43203e3fcc66711ba8580ab68002b9e6a192a237f052",
    ('semu-seeded', 'fig1'):
        "7c5d23a52704c0d9c7309ed22c512c7553e9c27920a0aa5fc08bd2f821f69f7e",
    ('semu-seeded', 'mask'):
        "336e172e6c909eb56efb4ce20d7bf2882fcd76dc5b1143e44448820b1223e4f7",
    ('semu-seeded', 'max2'):
        "3b7d2456dff77a623a00635ae4cfdcaf95a47eef1ef75c1e910a00742368e74d",
    ('semu-seeded', 'parity'):
        "d10ccaa9a2d977249fee2172eeb456fa04482792f34c6e270f81cc75c13ab25b",
    ('semu-seeded', 'poly'):
        "0f4b8a2adaf367200ce2a355f2e008da850d6477351a1c92e0c0658083863aa0",
    ('semu-seeded', 'sign'):
        "492f3dc6830927efd24ece5c2209d0c61209c2a5e3035d427b46fa8ca759b17f",
    ('semu-seeded', 'sumloop'):
        "359bf8c850c10731bb45c78b56cacc0120040979dfa4e75f6d4397fab97de4d2",
    ('vanilla', 'abs'):
        "849fbd794377bf87ff5473710afc7f4ca9c8301e4d5c922d553ec42ea9214466",
    ('vanilla', 'callfn'):
        "7f7e9dddc555c3c19b6d24ff891e77f1abfc9fe96868358ef7726e19fc692b22",
    ('vanilla', 'clamp'):
        "634db1f41026163814f9a8c252eaae8f3ae9b8de0c8e7d0d435db9e17ef3df36",
    ('vanilla', 'classify'):
        "3bfce1d2863c7090c4eaba6fb6c797d48a9cc464b75c8bff3e736c1e7e324d34",
    ('vanilla', 'countdown'):
        "a37e8fe94cc371e12259b80a6289681e3bba781771902f77f2d3295b5b64fd99",
    ('vanilla', 'divmod'):
        "28033a69909a98671016c351a65212524e4d0a568648da90a8fe04c7b3d4491c",
    ('vanilla', 'fig1'):
        "ebba31a8aa0a60b1ea38f11e3200cea71760b3ebd45b51f6f45fefec7d46fe46",
    ('vanilla', 'mask'):
        "e4274c5bb387a7b7825a223dda0510fa86fc2ead41e510a3c1595f0ff13ef61e",
    ('vanilla', 'max2'):
        "7f7e9dddc555c3c19b6d24ff891e77f1abfc9fe96868358ef7726e19fc692b22",
    ('vanilla', 'parity'):
        "e4274c5bb387a7b7825a223dda0510fa86fc2ead41e510a3c1595f0ff13ef61e",
    ('vanilla', 'poly'):
        "e4274c5bb387a7b7825a223dda0510fa86fc2ead41e510a3c1595f0ff13ef61e",
    ('vanilla', 'sign'):
        "6b2d178c596eb34ae13c90f0fb48c59b94783af77fe85db6cbd23ff709f58e2b",
    ('vanilla', 'sumloop'):
        "4ccb8652eff101834b22022f8ad9ea5416b87c19b698b1744244a3962986219c",
}


# the seed-following run: targets the kept mutants at one mutation point
# that the two bound seeds reach, so the engine follows the seeds until its
# release depth
SEED_FOLLOWING = symex.Config(mode="semu", pp=0.5, rng_seed=3, max_states=500,
                              budget_seconds=600)

# `digest(format_tests(tests))` per program: the tests of its run
SEED_FOLLOWING_GOLDEN = {
    'abs':
        "77eac553859d5ae5bf3a3bca6d47c39d424c73ae59ad178abf423fc34c86f6ee",
    'callfn':
        "8ec85574645b074413d94a34aa7ec42aa1221ec08d7cac43d2c03c9af23914aa",
    'clamp':
        "f08154fe9d9077d4ea14787851f2c7317cd36c42de4da512650b830c8bf9ea2a",
    'classify':
        "c850e8fdd1e8c60fcf27cb53799760174187235176445c494216a37e0ff6b284",
    'countdown':
        "58cdb159dacb383ccc4aeeb1a8347750e763e9becdbaa14664667731de8a9152",
    'divmod':
        "ab25b7af4d505912adfbcda705f854dabf5792b8631fc635f18a9ba6b01aedde",
    'fig1':
        "188f5ee0ff2fdd9f98e41dc63c2e3bf802cba5866bfe8aa6d638669ed2868c11",
    'mask':
        "b6e4fa9ade50d4b416cfcc172e2581df503b9f8e8ef5b3bcfc5c72e489128369",
    'max2':
        "e38b0c89c6be8ba02ba6c9571ca454c97acd67eeee9d76fc56a995bd1e1af170",
    'parity':
        "24c7c1153725f557822a2df252beb734495a1130f5dd1b56cd5e59369973687c",
    'poly':
        "274789e5a242e36f7ed55376ecf8c21db6a53f90005dc26d368babb6c48495e2",
    'sign':
        "63714ce6785de292e7b83d618a34084e8e8cdaacaf017eedb6962690debdbd6c",
    'sumloop':
        "828f8a3b8e7176e59ffc0009958ec4dbe8f4a31e264b0c3d218f4aeabf54bd70",
}


# `digest(work_counts(stats.as_text()))` per program: its run's work counts
SEED_FOLLOWING_STATS_GOLDEN = {
    'abs':
        "40d8aa2ca81e7ffab8f8174a9a2685eeb53a7e67195d18cf7e424e0cffc85f25",
    'callfn':
        "ebac9c644911876422a19ce494c468f7709407fd2a0d01a624b6e4a6dc4867df",
    'clamp':
        "d90ac12c4cf3ab17be6b692f1820cddc1a972c02eb53c21548d7aa8f7cde35ff",
    'classify':
        "64a7c5dde222b02549c24802032165a9ed8dbd590279f8ccab20e586459756ea",
    'countdown':
        "f4d12433ba82ca96d71e66609fd89f025de896f87e5ba7efc066e6b074e5cbe8",
    'divmod':
        "59c0c2234ca3d2aa35ec294ad56bc8671ee7499676debbe03a6cfe43bedabe69",
    'fig1':
        "f26732625e1fb875c7346cf68485f41eb4abd3be21825001129f954460093c4f",
    'mask':
        "c3b21df0d7ac93c77c031cfaebd9015a81733bfdc52d5d4094d227f6ea1747e7",
    'max2':
        "4e1e4fa8c75c4260529c451f349cf9f551947389212db65d973fe90669ed984c",
    'parity':
        "8c71f91e5de2653a5b74ffc87c40520f1a1dfe83e0b8cd72af2f866065f31dab",
    'poly':
        "dc5ddff73844df75023f648d32c76a670b942e3cc72bbddd823ee2f9186d198e",
    'sign':
        "789babc533dedbe3d7fd1e25c8186f5d1f6d9d119b7cbe82f4d6adf64998c6e8",
    'sumloop':
        "e3a380d3cb38bccad4bda016a878e55125246f90f2dc6e193d92bab8c7dfc3d0",
}


# the benchmark's `wide` configuration with a fixed RNG_SEED: its programs
# take two inputs over the default domains, so every two-input query
# enumerates 65 536 points and runs as the solver's generated loop nest
WIDE_CONFIG = ("MODE = semu\nPP = 0.25\nCW = 0\nMPD = 2\nPSS = RND\nMAX_STATES = 200\n"
               "MAX_DEPTH = 200\nSTEP_BUDGET = 100000\nBUDGET_SECONDS = 600\nRNG_SEED = 1\n")
WIDE_FILES = ("tests.txt", "matrix.csv")

# `outputs_digest` of WIDE_FILES per benchmark program
WIDE_GOLDEN = {
    'classify':
        "7a5bec356658ec2e0842049a4cef69d5f204d31c092914b95956c33d7abe7b36",
    'divmod':
        "f887ae86ec8e5f213e297c90751978c066e3442b818cea13495d0c8021ab716c",
    'linear':
        "ed60d9a48cd88a80eb3a3b09777683986992b5cdf47e8daad068fd7569b56fb4",
    'max2':
        "f6e727c59929a2ec3739a007f6b2574656347e76a4415664b42ad026be09bd73",
}

# `digest` of the `work_counts` per benchmark program
WIDE_STATS_GOLDEN = {
    'classify':
        "83360c38e3aef05f137455b37a855840932ee5a620a45ac11fa0aef17cc4c2c3",
    'divmod':
        "bcf3ffb546ca584c8d6c43203e3fcc66711ba8580ab68002b9e6a192a237f052",
    'linear':
        "1eaacf260efa1e6890b3a709bcbff3b875a3a87f255e3515441da4e1ed678494",
    'max2':
        "0d4f623da05dcd1badff5393204402f802e8dde397935749f38256b7b1847bff",
}


def bound_seeds(name: str) -> str:
    inputs = C.load_lts(name).inputs
    return "".join(", ".join(f"{v}={dom[i]}" for v, dom in inputs) + "\n"
                   for i in (0, 1))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def outputs_digest(out_dir, files=FILES) -> str:
    h = hashlib.sha256()
    for name in files:
        h.update(name.encode() + b"\0")
        h.update((out_dir / name).read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def work_counts(stats_text: str) -> str:
    """`stats.txt` without its `wall_clock=` line: the states, prunings,
    solver calls and tests per mutant of the exploration."""
    return "".join(line for line in stats_text.splitlines(keepends=True)
                   if not line.startswith("wall_clock="))


def run_counts(out_dir) -> str:
    """The `work_counts` of the run that wrote `out_dir`."""
    return work_counts((out_dir / "stats.txt").read_text())


def hashed(counts):
    """The `digest` of each entry of a table of work counts."""
    return {key: digest(text) for key, text in counts.items()}


def corpus_digests(config: str, tmp_path: Path):
    """`outputs_digest` and work counts per corpus program, one full
    pipeline run each under `config`."""
    got, got_counts = {}, {}
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
        got_counts[name] = run_counts(out)
    return got, got_counts


def wide_digests(tmp_path: Path):
    """`outputs_digest` of WIDE_FILES and work counts per benchmark
    program, one full pipeline run each under WIDE_CONFIG."""
    got, got_counts = {}, {}
    for path in sorted(Path(C.BENCH_PROGRAMS).glob("*.mimp")):
        out = tmp_path / path.stem
        cli.run_pipeline(cli.parse_config(WIDE_CONFIG, program=str(path), out_dir=str(out)))
        got[path.stem] = outputs_digest(out, WIDE_FILES)
        got_counts[path.stem] = run_counts(out)
    return got, got_counts


def followed_point(meta, kept, seeds) -> int:
    """The mutation point of a kept mutant whose first visit comes latest in
    either seed's run of the original; ties go to the higher location."""
    points = {loc for loc, mids in meta.mutation_points.items() if kept & set(mids)}
    latest = {}
    for seed in seeds:
        first = {}
        for i, (_, loc) in enumerate(run_lts(meta.program(0), seed, record_states=True).states):
            if loc in points:
                first.setdefault(loc, i)
        for loc, i in first.items():
            latest[loc] = max(latest.get(loc, i), i)
    return max(latest, key=lambda loc: (latest[loc], loc))


def seed_following_run(name: str):
    """(tests, stats) of exploring `name` from its two bound seeds with the
    kept mutants at `followed_point` targeted."""
    lts, _, tce, meta = C.build(name)
    seeds = cli.read_seeds(bound_seeds(name))
    kept = set(tce.kept())
    targets = kept & set(meta.mutation_points[followed_point(meta, kept, seeds)])
    return symex.explore(meta, targets, seeds, SEED_FOLLOWING, C.bounded_handle(lts))


def seed_following_digests():
    """The tests' digest, the work counts and `pruned_seed` of
    `seed_following_run` per corpus program."""
    got, got_counts, pruned = {}, {}, {}
    for name in sorted(C.ALL_PROGRAMS):
        tests, stats = seed_following_run(name)
        got[name] = digest(cli.format_tests(tests))
        got_counts[name] = work_counts(stats.as_text())
        pruned[name] = stats.pruned_seed
    return got, got_counts, pruned


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_corpus_outputs_unchanged(config, tmp_path):
    got, got_counts = corpus_digests(config, tmp_path)
    want = {name: GOLDEN[(config, name)] for name in sorted(C.ALL_PROGRAMS)}
    assert got == want
    want_stats = {name: STATS_GOLDEN[(config, name)] for name in sorted(C.ALL_PROGRAMS)}
    assert hashed(got_counts) == want_stats


def test_wide_outputs_unchanged(tmp_path):
    got, got_counts = wide_digests(tmp_path)
    assert got == WIDE_GOLDEN
    assert hashed(got_counts) == WIDE_STATS_GOLDEN


def test_seed_following_unchanged():
    got, got_counts, pruned = seed_following_digests()
    # the configuration does follow seeds: off-seed branches are pruned
    assert pruned["fig1"] > 0 and pruned["classify"] > 0
    assert got == SEED_FOLLOWING_GOLDEN
    assert hashed(got_counts) == SEED_FOLLOWING_STATS_GOLDEN


def _print_table(title: str, table) -> None:
    print(f"{title} = {{")
    for key in sorted(table):
        print(f"    {key!r}:\n        \"{table[key]}\",")
    print("}")


def _print_counts(title: str, counts) -> None:
    print(f"# {title} work counts")
    for key in sorted(counts):
        for line in counts[key].splitlines():
            print(f"{key!r} {line}")


if __name__ == "__main__":
    golden, counts = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for config in sorted(CONFIGS):
            (Path(tmp) / config).mkdir()
            got, got_counts = corpus_digests(config, Path(tmp) / config)
            golden.update(((config, name), d) for name, d in got.items())
            counts.update(((config, name), text) for name, text in got_counts.items())
    _print_table("GOLDEN", golden)
    _print_table("STATS_GOLDEN", hashed(counts))
    seed_following, seed_following_counts, _ = seed_following_digests()
    _print_table("SEED_FOLLOWING_GOLDEN", seed_following)
    _print_table("SEED_FOLLOWING_STATS_GOLDEN", hashed(seed_following_counts))
    with tempfile.TemporaryDirectory() as tmp:
        wide, wide_counts = wide_digests(Path(tmp))
    _print_table("WIDE_GOLDEN", wide)
    _print_table("WIDE_STATS_GOLDEN", hashed(wide_counts))
    _print_counts("corpus", counts)
    _print_counts("seed-following", seed_following_counts)
    _print_counts("wide", wide_counts)
