"""Byte-identity gate: the pipeline's output files for every corpus program
under four configurations, pinned by SHA-256, and the engine's work counts
in `stats.txt` (every line but `wall_clock=`), pinned the same way.  A fifth
configuration explores with two seeds that the engine really follows, and
pins its tests and work counts.

A change that is meant to keep behaviour (a refactor, a faster engine or
solver) must leave every digest as it is.  A change that alters outputs on
purpose updates the table and says why.  Every budget here is a work budget;
BUDGET_SECONDS is far above need, so the digests do not depend on machine
speed.

`python3 tests/test_golden.py` prints the three tables for the checked-out
tree, from the same digest functions as the tests.
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

# `stats_digest` of each run: the engine's work counts (states, prunings,
# solver calls, tests per mutant), which the output files do not show
STATS_GOLDEN = {
    ('infection-only', 'abs'):
        "d2413175eb41ed0b615570192731b14b7eafcae2dd720c9391702182b1c7ae0e",
    ('infection-only', 'callfn'):
        "ec448d252710246d83ec0380536fb0b4c97c9f8e6a94dc068701e9ca2ab9c483",
    ('infection-only', 'clamp'):
        "9ed104811825df9fba72dba37fc4b2fd2ad8ae5772b1ee5a3e35ed0d3209a07b",
    ('infection-only', 'classify'):
        "8b83f90d69d70ac0e36a3bbb4130ac96a825a6a9c5bde040f3ede5b665ed09a8",
    ('infection-only', 'countdown'):
        "3b6e4e70a170345c08bb7bd32f7e86c10d6922eb9596c7190a7e63a535dd534f",
    ('infection-only', 'divmod'):
        "740ab83b416fa212c8eca5723d7d6e75acc186ab734684c2214bf482789815b3",
    ('infection-only', 'fig1'):
        "334de83eda7ccf1cb6bdc36a0de5a37a677931468c191dc27bafaea79291c5a3",
    ('infection-only', 'mask'):
        "a82c759dcde2f26fb358ae78c17ef88c8f8e93bd1d4f077b5303a30332c39916",
    ('infection-only', 'max2'):
        "9313410cec37fd3fb1bdbff1fa74815f698c83a369079196e2d5a503045154cf",
    ('infection-only', 'parity'):
        "e7bb3c83e17d9147685da3b0488fff577b45aed9cad48d2be61bdaa31de35224",
    ('infection-only', 'poly'):
        "4734c571ba07a4795c9f8228144f4311e9e0c726fce39e491421233fbe2fa363",
    ('infection-only', 'sign'):
        "fe993f46f343819660dde072547d6c6d0c92c10a9a4e766ad3163625ed2df158",
    ('infection-only', 'sumloop'):
        "90936ef4567e80bcf135423902af63ca5cb609527ab1d7036a8479c2e9ac97c9",
    ('semu', 'abs'):
        "28144ebebed7269a9e20c4911efa3de93208d2c8c5835b5846401558050b0d5d",
    ('semu', 'callfn'):
        "94a038a276cd43098c824eaf25e08ae48630bb2910a3d8e0a9c748a37617cd2f",
    ('semu', 'clamp'):
        "46d158792c32997e89e75c88f3cd5872f25e70bd43e3b5c8412a43593109c164",
    ('semu', 'classify'):
        "24e8789381ae9b49efae6c786db7745fe54c5af0f57014e9d02e42047f1bc50c",
    ('semu', 'countdown'):
        "607b54b16865d0316534dafcb2dbe0f439223554348e32f439bda435cd6d8326",
    ('semu', 'divmod'):
        "c77c154ed8f0e8712d7d42654af1a3ae8e5a37cc0882f09a5881ae9bfc6feabc",
    ('semu', 'fig1'):
        "1e4422decf58269b1cfcd1fad487f74384bff039cd46f0b7faeafab372db5e80",
    ('semu', 'mask'):
        "40860e31c14c0ee138f0e9dda1e3f9f94069f38f89c71c95d711bf5e940eca63",
    ('semu', 'max2'):
        "3b7d2456dff77a623a00635ae4cfdcaf95a47eef1ef75c1e910a00742368e74d",
    ('semu', 'parity'):
        "1a3092e3936bb82351412f67de1cfacb97c47bbbe798f14b76dd2786bd4f2730",
    ('semu', 'poly'):
        "277798cb39d36d9db128e6102179d1819bea6f2249d85d8f16bf72f0a6a5ccf0",
    ('semu', 'sign'):
        "c5f26d34a3d262aa98371efc26007a29ff687098c13b936376dd99f8978f584a",
    ('semu', 'sumloop'):
        "6a98cc67a249172ce016142d1a07b887b7ec2c129441c72252ef078f1f4d9633",
    ('semu-seeded', 'abs'):
        "28144ebebed7269a9e20c4911efa3de93208d2c8c5835b5846401558050b0d5d",
    ('semu-seeded', 'callfn'):
        "94a038a276cd43098c824eaf25e08ae48630bb2910a3d8e0a9c748a37617cd2f",
    ('semu-seeded', 'clamp'):
        "46d158792c32997e89e75c88f3cd5872f25e70bd43e3b5c8412a43593109c164",
    ('semu-seeded', 'classify'):
        "24e8789381ae9b49efae6c786db7745fe54c5af0f57014e9d02e42047f1bc50c",
    ('semu-seeded', 'countdown'):
        "607b54b16865d0316534dafcb2dbe0f439223554348e32f439bda435cd6d8326",
    ('semu-seeded', 'divmod'):
        "c77c154ed8f0e8712d7d42654af1a3ae8e5a37cc0882f09a5881ae9bfc6feabc",
    ('semu-seeded', 'fig1'):
        "1e4422decf58269b1cfcd1fad487f74384bff039cd46f0b7faeafab372db5e80",
    ('semu-seeded', 'mask'):
        "40860e31c14c0ee138f0e9dda1e3f9f94069f38f89c71c95d711bf5e940eca63",
    ('semu-seeded', 'max2'):
        "3b7d2456dff77a623a00635ae4cfdcaf95a47eef1ef75c1e910a00742368e74d",
    ('semu-seeded', 'parity'):
        "1a3092e3936bb82351412f67de1cfacb97c47bbbe798f14b76dd2786bd4f2730",
    ('semu-seeded', 'poly'):
        "277798cb39d36d9db128e6102179d1819bea6f2249d85d8f16bf72f0a6a5ccf0",
    ('semu-seeded', 'sign'):
        "c5f26d34a3d262aa98371efc26007a29ff687098c13b936376dd99f8978f584a",
    ('semu-seeded', 'sumloop'):
        "6a98cc67a249172ce016142d1a07b887b7ec2c129441c72252ef078f1f4d9633",
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
        "c27cac2768c1a2ae36974184013d36fb91c181e3ead95561cdd2d880d973b8ca",
    ('vanilla', 'fig1'):
        "0ac91b8025ea01259389e93f35ede0fc1d0e766d2c13c255f99faacc6b860ae5",
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

# `seed_following_digest` per program: its tests and work counts
SEED_FOLLOWING_GOLDEN = {
    'abs':
        "d53b2967a6644f3d1eaabd7bac6287e5458ef182ca329181a35083f21b1b8551",
    'callfn':
        "58c67d45676ecd6086d42aca727f6efd0b4faa8abeec72afbe580ebc28ddec7e",
    'clamp':
        "023e8af7ebcf754869432a4c91eb28ba4640d3fc80458c6fee4fae0480d4855b",
    'classify':
        "c581c689c54b4bf34d348291ecd6bd58f613d0639609b6220c14a017c239d82c",
    'countdown':
        "92f076485a06ca3edd50fa49a5f0d481cbfb05b4390d8e645616bc3fcec2bf28",
    'divmod':
        "f433977f65b6c509e8f94b7d4ce88948fdf89cd307b4ef469df2d0c503aaa25f",
    'fig1':
        "b1fdf77d2c3ab52ecf6098f1b11c0444719a2c466453d4c5bbda1959cff4622e",
    'mask':
        "37387ea14dead73c11d4b60725a4f9f5a0900ae6107b4d300a49a7ee3ca0d7c9",
    'max2':
        "67c4d193cad850e37bb7099e2455f525154c42d741c7aeaf76fb9f1b84709753",
    'parity':
        "cb195ed88e383204746dc8534d0be87d9ce88e857a1b87a862975075d6b71a2e",
    'poly':
        "fa1914bd7e6564e841b715c4039dc47da98e62546ee3f79d01c4387e55a01e3d",
    'sign':
        "9972b729e3f1d5fd785fa14402d9c3e54b8e14c899143110c615a05efcd8fec2",
    'sumloop':
        "d182cd00b94e9f1afc58f8613ad9e33a8dccd5cf621955519416ab5dfa0663ee",
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


def work_counts(stats_text: str) -> str:
    """`stats.txt` without its `wall_clock=` line: the states, prunings,
    solver calls and tests per mutant of the exploration."""
    return "".join(line for line in stats_text.splitlines(keepends=True)
                   if not line.startswith("wall_clock="))


def stats_digest(out_dir) -> str:
    kept = work_counts((out_dir / "stats.txt").read_text())
    return hashlib.sha256(kept.encode()).hexdigest()


def corpus_digests(config: str, tmp_path: Path):
    """`outputs_digest` and `stats_digest` per corpus program, one full
    pipeline run each under `config`."""
    got, got_stats = {}, {}
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
        got_stats[name] = stats_digest(out)
    return got, got_stats


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


def seed_following_digest(tests, stats) -> str:
    text = cli.format_tests(tests) + work_counts(stats.as_text())
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_corpus_outputs_unchanged(config, tmp_path):
    got, got_stats = corpus_digests(config, tmp_path)
    want = {name: GOLDEN[(config, name)] for name in sorted(C.ALL_PROGRAMS)}
    assert got == want
    want_stats = {name: STATS_GOLDEN[(config, name)] for name in sorted(C.ALL_PROGRAMS)}
    assert got_stats == want_stats


def test_seed_following_unchanged():
    got, pruned = {}, {}
    for name in sorted(C.ALL_PROGRAMS):
        tests, stats = seed_following_run(name)
        got[name] = seed_following_digest(tests, stats)
        pruned[name] = stats.pruned_seed
    # the configuration does follow seeds: off-seed branches are pruned
    assert pruned["fig1"] > 0 and pruned["classify"] > 0
    assert got == SEED_FOLLOWING_GOLDEN


def _print_table(title: str, table) -> None:
    print(f"{title} = {{")
    for key in sorted(table):
        print(f"    {key!r}:\n        \"{table[key]}\",")
    print("}")


if __name__ == "__main__":
    golden, stats_golden = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for config in sorted(CONFIGS):
            (Path(tmp) / config).mkdir()
            got, got_stats = corpus_digests(config, Path(tmp) / config)
            golden.update(((config, name), d) for name, d in got.items())
            stats_golden.update(((config, name), d) for name, d in got_stats.items())
    _print_table("GOLDEN", golden)
    _print_table("STATS_GOLDEN", stats_golden)
    _print_table("SEED_FOLLOWING_GOLDEN", {
        name: seed_following_digest(*seed_following_run(name))
        for name in sorted(C.ALL_PROGRAMS)})
