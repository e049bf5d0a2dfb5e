"""Byte-identity guard for the cusp, fan, atlas, series and monodromy
subcommands.

Each entry of ``GOLDEN`` is one in-process CLI call with its exit code and
the sha256 of its stdout.  The calls run on the cusp fans of eight
discriminants, on their copies with the last member deleted, and on
seeded Stern-Brocot and octant fans, together with their atlases;
``fan validate`` also runs at shell depths 0 and 2 on three of the cusp
fans and their copies.  The quadratic-output commands (cusp fans and
figures, the SBB decomposition of the cusp cone and its validation, strata
and atlases of the cusp fans) run on the same eight discriminants.  ``SERIES_GOLDEN`` pins the exit code
and the sha256 of stdout and of stderr of ``series reframe`` and ``series
check`` calls on seeded rank-2 to rank-4 series and on documents that spell
their coefficients in every accepted and several rejected ways, or that mix
parse faults with duplicate, truncation and complete-order faults, which
pins the fault each reports.
``MONODROMY_GOLDEN`` pins the same three values for ``monodromy coords`` at
orders 0, 3 and the default and for ``monodromy check``, on the elliptic,
quintic-like and product fixtures with scaled omega0, on a dense pairing,
on a sign-degenerate one, on one whose bottom pairing vanishes at the origin
and on a document without a pairing.  A refactor that keeps these outputs
byte-identical keeps the tables; a change that means to alter an output
updates the affected entries and says why.
"""

import hashlib
import random
from fractions import Fraction

import pytest

import fixtures
from semitoric import CuspData, Decomposition, build_fan, cli
from semitoric.connection import atlas_from_fan
from semitoric.errors import DegenerateInputError
from semitoric.formats import canonical_dumps, dump_atlas, dump_fan, dump_monodromy

DISCRIMINANTS = (2, 3, 5, 6, 7, 13, 21, 29)


def _fans() -> dict:
    fans = {}
    for D in DISCRIMINANTS:
        fan = build_fan(CuspData.standard(D))
        fans[f"cusp{D}"] = fan
        fans[f"cusp{D}-del"] = Decomposition(fan.rank, fan.members[:-1], fan.group, fan.support)
    for seed, steps in ((1, 3), (2, 5)):
        fans[f"sb{seed}"] = fixtures.stern_brocot_fan(random.Random(seed), steps)
        fans[f"oct{seed}"] = fixtures.octant_fan(random.Random(seed), steps)
    return fans


def write_files(root) -> dict:
    """File path of every fan, of the atlas of every fan that has one
    (under the fan's name plus ``.atlas``) and of the ``fan sbb -D`` output
    for every discriminant (under ``sbb`` plus the discriminant)."""
    paths = {}
    for name, fan in _fans().items():
        docs = {name: dump_fan(fan)}
        try:
            docs[f"{name}.atlas"] = dump_atlas(atlas_from_fan(fan))
        except DegenerateInputError:
            pass
        for key, doc in docs.items():
            path = root / f"{key}.json"
            path.write_text(canonical_dumps(doc))
            paths[key] = str(path)
    for D in DISCRIMINANTS:
        path = root / f"sbb{D}.json"
        assert cli.main(["fan", "sbb", "-D", str(D), "--output", str(path)]) == 0
        paths[f"sbb{D}"] = str(path)
    return paths


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> dict:
    return write_files(tmp_path_factory.mktemp("golden"))


def run_call(call: str, files: dict, capsys) -> tuple:
    """(exit code, sha256 of stdout) of one table entry; a word naming a
    fan or atlas file stands for its path."""
    words = call.split()
    code = cli.main(words[:2] + [files.get(w, w) for w in words[2:]])
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode()).hexdigest()


GOLDEN = {
    "fan validate cusp2": (0, "eb31f83e8bbe0df62f9f42b3f6ee3f9c0257c17fdf67b225338bac7d65cf447f"),
    "fan validate cusp3": (0, "f37521e97b406d3fe14f9944d4a190bf60adf4c39724de7009325f60c0f52acb"),
    "fan validate cusp5": (0, "f37521e97b406d3fe14f9944d4a190bf60adf4c39724de7009325f60c0f52acb"),
    "fan validate cusp6": (0, "eb31f83e8bbe0df62f9f42b3f6ee3f9c0257c17fdf67b225338bac7d65cf447f"),
    "fan validate cusp7": (0, "eb31f83e8bbe0df62f9f42b3f6ee3f9c0257c17fdf67b225338bac7d65cf447f"),
    "fan validate cusp13": (0, "d3afbe7468839066b89eba7be78879bade86a93fbc82ef8932a657a4fc23a834"),
    "fan validate cusp21": (0, "f37521e97b406d3fe14f9944d4a190bf60adf4c39724de7009325f60c0f52acb"),
    "fan validate cusp29": (0, "e22020d86e2a9d852b4d5f05906ba349765f73481a33e9fb113fcaceb2303feb"),
    "fan validate cusp2-del": (1, "274d1f4d6b6f4cdd6d15f86986a23ea2c113a6bb64429ade93ee103c6ff6343d"),
    "fan validate cusp3-del": (1, "d47fe1ccdbd32938a24f32b97f5179486ae0654ade8db21c9f0b7da8ce23b155"),
    "fan validate cusp5-del": (1, "01b1fe24213f0875e403cf28b5b2409dd24688f48700a3665ef887544fe1e11a"),
    "fan validate cusp6-del": (1, "32da840f533262bdb48af94f74409e691bbe086429e6cade58826f55b8fe6d87"),
    "fan validate cusp7-del": (1, "32da840f533262bdb48af94f74409e691bbe086429e6cade58826f55b8fe6d87"),
    "fan validate cusp13-del": (1, "341c5bd2956abcb977d761c469ec572f2d07e2d52a5c18376d47ffbe7e7ed63b"),
    "fan validate cusp21-del": (1, "06522d6ea333e0eb0ebe6295fc5fa11f37c547c041bf37365c152dbfb48e91d0"),
    "fan validate cusp29-del": (1, "ca8feca625315730dfacd1cfc3b30a6e3fe7c46a57d7cd81236fd7959475a9c9"),
    "fan validate sb1": (0, "469ff29833833fdd2e281d4271a920edd2c08cae187ef6421e032ca0ded4f3a7"),
    "fan validate sb2": (0, "469ff29833833fdd2e281d4271a920edd2c08cae187ef6421e032ca0ded4f3a7"),
    "fan validate oct1": (0, "469ff29833833fdd2e281d4271a920edd2c08cae187ef6421e032ca0ded4f3a7"),
    "fan validate oct2": (0, "469ff29833833fdd2e281d4271a920edd2c08cae187ef6421e032ca0ded4f3a7"),
    "fan validate sbb2": (0, "f37521e97b406d3fe14f9944d4a190bf60adf4c39724de7009325f60c0f52acb"),
    "fan validate sbb3": (0, "f37521e97b406d3fe14f9944d4a190bf60adf4c39724de7009325f60c0f52acb"),
    "fan validate sbb5": (0, "f37521e97b406d3fe14f9944d4a190bf60adf4c39724de7009325f60c0f52acb"),
    "fan validate sbb6": (0, "f37521e97b406d3fe14f9944d4a190bf60adf4c39724de7009325f60c0f52acb"),
    "fan validate sbb7": (0, "f37521e97b406d3fe14f9944d4a190bf60adf4c39724de7009325f60c0f52acb"),
    "fan validate sbb13": (0, "f37521e97b406d3fe14f9944d4a190bf60adf4c39724de7009325f60c0f52acb"),
    "fan validate sbb21": (0, "f37521e97b406d3fe14f9944d4a190bf60adf4c39724de7009325f60c0f52acb"),
    "fan validate sbb29": (0, "f37521e97b406d3fe14f9944d4a190bf60adf4c39724de7009325f60c0f52acb"),
    "fan validate cusp2 --shell 0": (0, "d4067cb2087933ad7077bc73e2c88235dcb86817614970aacdfcbc88632dba62"),
    "fan validate cusp2 --shell 2": (0, "6705d1bcc2f98a73f2f43d76d0929bf7fee34e8b998d0b8d7d4734e4c0ea983c"),
    "fan validate cusp5 --shell 0": (0, "6b34e7543f3df5ef425a6ba58e376bccbd2b1ccca0dbbd1e54654e24716726ce"),
    "fan validate cusp5 --shell 2": (0, "1f01f8820125d9e1731812ec646b4b62cbe052978e512be7769aa4164fc51ae2"),
    "fan validate cusp13 --shell 0": (0, "a2d073adf5ab8e3e18b48fef4c3f18c0099b233c2c7d2321f34870d4c10d4a26"),
    "fan validate cusp13 --shell 2": (0, "ed6d77fe156a043290d9c610f42961912a310f37fbfab6332bb38382d0dda923"),
    "fan validate cusp2-del --shell 0": (1, "fc6bfdc6bcbeca2af46a8b1617f123b6670d9a0a1fcffc2bf57e0ab97b9edada"),
    "fan validate cusp2-del --shell 2": (1, "c18af10441489753d73cffae7ce5b937aa65e162085161c13d4154f959a3d1f6"),
    "fan validate cusp5-del --shell 0": (1, "bddb2547631bf0eeec66779e24879105458614185fdef45d33b96fe7d6730b06"),
    "fan validate cusp5-del --shell 2": (1, "724ca96799b84767ad8f8b5391bcc0ee9d8d4fa3bd516fe47924b7c054cd97b7"),
    "fan validate cusp13-del --shell 0": (1, "bbf28bb759eed865f4f0fc80f4d1fe93460867aee66bb278e956554b13172d75"),
    "fan validate cusp13-del --shell 2": (1, "8bacbf99a33c33a41582dc65fbd2794ae62c1550fb78e9539823fadfa3a1d78e"),
    "fan common cusp5 cusp5-del": (0, "4dc9733d014d99d119177edb1d14cc9999a6040ca83f8ac5131d30f21982cb91"),
    "fan common cusp13 cusp13-del": (0, "5f41e1cb91b2cacd0d91ffd55983d4dd1bba172ae41d63a6d81b7bfcd0d24dcb"),
    "fan common cusp21 cusp21-del": (0, "f4b654ff01eee6a44a0d32d62e10bff39506cb7200295a1f92f5f9cdc59ed73b"),
    "fan common sb1 sb2": (0, "075efb4623f1f4a99bc6d0d6b574458b66079b46e7f27f5460a4e467d2a5c5bb"),
    "fan common oct1 oct2": (0, "7c6ef25a335b31edf8c09d2e4b3213485ecc809d61276810e00e6587049f75c2"),
    "fan refines cusp5 cusp5-del": (1, "7b5bf0b3f0b6484592219da95d94cadc3b3162c2f6f16eb2dd0b824e1571168c"),
    "fan refines cusp13-del cusp13": (0, "2dc415185bf8560c0ea150b30db19802b107e6e897e33e15bcac6537fc5dc7cf"),
    "fan refines sb1 sb2": (1, "7b5bf0b3f0b6484592219da95d94cadc3b3162c2f6f16eb2dd0b824e1571168c"),
    "fan refines oct2 oct1": (1, "7b5bf0b3f0b6484592219da95d94cadc3b3162c2f6f16eb2dd0b824e1571168c"),
    "atlas check cusp2.atlas": (0, "79075ff65f6a6e0aff6cfcb985b5457dcc8ea8a3daa95fcd1e79a18bbecee9c1"),
    "atlas check cusp3.atlas": (0, "79075ff65f6a6e0aff6cfcb985b5457dcc8ea8a3daa95fcd1e79a18bbecee9c1"),
    "atlas check cusp5.atlas": (0, "79075ff65f6a6e0aff6cfcb985b5457dcc8ea8a3daa95fcd1e79a18bbecee9c1"),
    "atlas check cusp6.atlas": (0, "79075ff65f6a6e0aff6cfcb985b5457dcc8ea8a3daa95fcd1e79a18bbecee9c1"),
    "atlas check cusp7.atlas": (0, "79075ff65f6a6e0aff6cfcb985b5457dcc8ea8a3daa95fcd1e79a18bbecee9c1"),
    "atlas check cusp13.atlas": (0, "79075ff65f6a6e0aff6cfcb985b5457dcc8ea8a3daa95fcd1e79a18bbecee9c1"),
    "atlas check cusp21.atlas": (0, "79075ff65f6a6e0aff6cfcb985b5457dcc8ea8a3daa95fcd1e79a18bbecee9c1"),
    "atlas check cusp29.atlas": (0, "79075ff65f6a6e0aff6cfcb985b5457dcc8ea8a3daa95fcd1e79a18bbecee9c1"),
    "atlas check sb1.atlas": (0, "79075ff65f6a6e0aff6cfcb985b5457dcc8ea8a3daa95fcd1e79a18bbecee9c1"),
    "atlas check oct2.atlas": (0, "c18b8c0c577ff6f1543f9fef696a6aab432b58f8cb97bf85a9ccee297c8bdb5c"),
    "atlas check cusp6-del.atlas": (1, "cfa9dc1da949be066605db545766bb9007848ec9c03e255a85990134acd72c62"),
    "atlas check cusp13-del.atlas": (1, "60e98a51ed072a6f84729f57667fe084c821e086c11089c499e31813467572ea"),
    "atlas check cusp29-del.atlas": (1, "c10963b811bf839e46bf4e5328fed5630c0f1d37091c8af0e4cd42aafec4627e"),
    "atlas reconstruct cusp5.atlas": (0, "bcafd76f014daeb3f37575d155f8cbfb6408531a959ba7dc065adede52ec8e7a"),
    "atlas reconstruct cusp13.atlas": (0, "b600acb58142eed3970c5f8cd54ff64bba887aea53f32141cdaffd80caa4a77d"),
    "atlas reconstruct cusp29.atlas": (0, "34f25b5c72a70145575b2f3929704c65ab90a27c1db0a6f5368d70421b6f37e5"),
    "atlas reconstruct sb2.atlas": (0, "e37f4939114febb6d4c2a06919484d65e0cc4b251d4ff46e517106e680a33961"),
    "atlas reconstruct oct1.atlas": (0, "f6f59d609ada1a660e0482dd029c8fd7fcea6dcd4a0ca52f014a26b6fcaa677f"),
    "cusp fan -D 2": (0, "438d5ee9b998135956e843c294c54d5befee16be520f3130cfeac46b90917ce6"),
    "cusp figure -D 2 --kind hull": (0, "88868e30f4b70a50bade933b236070c2707b0f798ab9ad652cc8cf07ab9fbcac"),
    "cusp figure -D 2 --kind cycle": (0, "a2c38820882631aa8a661b1e491d1974741df30246f64d8bc23dde398c7aa7a2"),
    "fan sbb -D 2": (0, "d8c77f46ba8381ce2b3988c6afefc71d1efc6c0d0623cd6885dc75d31019462e"),
    "fan strata cusp2": (0, "94e477ca507a4bfcf5a668a46c3b8f3de071f9f8167f0a6262c5ad5cd94f8bb5"),
    "atlas from-fan cusp2": (0, "b0e685dfcce099f76d6d7a8e01a46d355bb71cec5a5730d18c81630ba92de0e7"),
    "cusp fan -D 3": (0, "cee4b6aa873819366261cc32ec0482cf7adb4f9a70bfda57c86fecfd6e7063b6"),
    "cusp figure -D 3 --kind hull": (0, "0110261818dc4951eb9df9e28a390b1ac4613ac11071b51b3b84b4d1288c9599"),
    "cusp figure -D 3 --kind cycle": (0, "04caafab6d2895d66ea5af4c1a714921260b98efd43695879bee7aff2d96562f"),
    "fan sbb -D 3": (0, "dd28db0fc0763ae83bfa2e7ee8c29a858194dca00111dbd5fa962253eb568fee"),
    "fan strata cusp3": (0, "cf2781cbfba73a137ca5507f5ac523d855e6daa5ca9d108878dc53ee21bb2b40"),
    "atlas from-fan cusp3": (0, "c6ae46c1a11a3de08f3f120c121a706afcc1fa559fff01c5209f12d5459b09a2"),
    "cusp fan -D 5": (0, "f48e8511faa52cf78dfb181b3f7d309ce2894d546453e050b7978a235ceeaaa8"),
    "cusp figure -D 5 --kind hull": (0, "ca39fa896f37ff3806590c8927bfafb2fb8e59136e7f159ab9f98ab2e81ea997"),
    "cusp figure -D 5 --kind cycle": (0, "5aa459a2145da691c9c46f42937bf55e1fd2bfda62667ea339428e9a68eee21e"),
    "fan sbb -D 5": (0, "88f6d92b5849f07615c468dbbb9d7a5cf2ac40601d9d658fdeba84e0068570ba"),
    "fan strata cusp5": (0, "ee7edb959b89d8041d0e05379c970897cd9257a3d69d1b2813fae76b7b77ff4f"),
    "atlas from-fan cusp5": (0, "e22b05b84a54082cf1111dfe9c76200c0fdba4c99e24ef7040f44361d3a59ae4"),
    "cusp fan -D 6": (0, "41863a88cc1db67fe1e28daa10cc4048b947a7a38a16aeb46c2a2097afb74a07"),
    "cusp figure -D 6 --kind hull": (0, "974f3b257e9f5cb2b9bdd7f207f21eb5eb6fdeee33c0cafc303f5cb8a13f4d3b"),
    "cusp figure -D 6 --kind cycle": (0, "24c3de6ea893d3950457f842b0d2126f0940d0cd176f97fe2304dc19496769d0"),
    "fan sbb -D 6": (0, "525d5379e33cfd9d78bd6ff789d4a3f9c190f838e958d919b33d1a13b6504ad9"),
    "fan strata cusp6": (0, "c485648b7b2ba6e7504fdafd70768172de20a942d47a9c92e3c3b6a88c6eec5d"),
    "atlas from-fan cusp6": (0, "970fbd57458e94a7f39020ee950186d90bdeb0bc99398088994db7961e22da21"),
    "cusp fan -D 7": (0, "4e0fffa87bde7d59b899177fdc238db7b3997761c0c019aa9bff860a00d59dfd"),
    "cusp figure -D 7 --kind hull": (0, "2247fa885d80a89c7f2004e8223ce7a735ea19a07fef1d0d1221c7d46e7649c7"),
    "cusp figure -D 7 --kind cycle": (0, "1ec8395a585b85f9d3fcb35596dcf40068b474daeced379895916f94a9e26c45"),
    "fan sbb -D 7": (0, "2e318f8dc698173fff66889938234d0b20b2f63c3d77270b082834997492a146"),
    "fan strata cusp7": (0, "f7808a57be8c84eb5b89854224d27d37817c7eb6832c0ae450f5a3bfda93d7cb"),
    "atlas from-fan cusp7": (0, "3aa6132577a21bd3a90471dbd78dba9e163b16842fdbafad0037787e44e50e51"),
    "cusp fan -D 13": (0, "713ae224957f9ccff48930b4a1f8aa818d441a85c2caa2039ddb3e06f5e21d4f"),
    "cusp figure -D 13 --kind hull": (0, "1e963966104e112c805accf5178db97992876ae30ba5eeffe92c2892d2754c0b"),
    "cusp figure -D 13 --kind cycle": (0, "6cc138fc341644e395fd544c0cc0f9b88ef042dfc22ea44b6b1614f16c248f6d"),
    "fan sbb -D 13": (0, "089f58207977355ddc1589f63fb8bb5e222464ab919adfba59220b7427934b64"),
    "fan strata cusp13": (0, "c34f9fe72998f91b8187511d226b52dfdf4ce01dfe0f05de6239af28ac43e74b"),
    "atlas from-fan cusp13": (0, "df623564d1d3dfadd371b2fecd323d28b58fd40154e3d198907a9839ebe542d7"),
    "cusp fan -D 21": (0, "89792369089be202695566c6c1a389922825c4e1813b4b8c2e283528ef648b92"),
    "cusp figure -D 21 --kind hull": (0, "1bd6b1eacad66de453ec3994ab5f7e987a13ea387176303a6e9a94e2a9bc0768"),
    "cusp figure -D 21 --kind cycle": (0, "7454f75c9976898541d47fa8f88bb2be947384fd61e35da7400c5cb521512eba"),
    "fan sbb -D 21": (0, "778f482de3bba97dfefb83e0042bde5975e33401348fb4f8883137ccc4aa852d"),
    "fan strata cusp21": (0, "cf2781cbfba73a137ca5507f5ac523d855e6daa5ca9d108878dc53ee21bb2b40"),
    "atlas from-fan cusp21": (0, "2590f367abed698efbb82e59645cb158ec61e018f4babb74737572e307e28047"),
    "cusp fan -D 29": (0, "5db007dbd3445350c65f0546bf926b58ed6707072c73afcf9925aca2fc886161"),
    "cusp figure -D 29 --kind hull": (0, "705670e1372ca836eb4641bbc1691d8f0a1aeb8ec0025356823cd156f9725d90"),
    "cusp figure -D 29 --kind cycle": (0, "befdcef87a47adad1d98b419f7c2337cee6dcf76886cda41b6a769bcb9a34af9"),
    "fan sbb -D 29": (0, "aab3bfb9cc3aae82e25367c2ba514ff6765eaeb1e59a9f076abccf37e5bff3da"),
    "fan strata cusp29": (0, "3f9e5a5db851acaef56b362071fa858b2ce45911ffdfd61b92ce61fd9947911a"),
    "atlas from-fan cusp29": (0, "472760f057d27d03a1f4c800aff9411df39f8c4511d34a9c9dc12eb9984241af"),
}


@pytest.mark.parametrize("call", sorted(GOLDEN))
def test_cli_output_is_unchanged(call, files, capsys):
    assert run_call(call, files, capsys) == GOLDEN[call]


# -- series ----------------------------------------------------------------------------

# Coefficient spellings that parse, each a term of the "spellings" document,
# and spellings that do not, each the one coefficient of an "errN" document.
SPELLINGS = (
    "7", "-3/8", "1.5", "+3/4", " 3/4", "1_000", "٣/4", "2/4", "-0/5", "1e3",
    "007/010", "-12", 5, -2,
)
BAD_SPELLINGS = ("1/0", "3/-4", "3 / 4", "0x10", "-", "", "1/", "/2")


def _series_doc(rank, terms, truncation, complete=None) -> dict:
    doc = {
        "format": "series/1",
        "rank": rank,
        "truncation": truncation,
        "terms": [{"exponent": list(e), "coefficient": c} for e, c in terms],
    }
    if complete is not None:
        doc["complete_order"] = complete
    return doc


def _seeded_terms(rank) -> list:
    """12*rank seeded terms with integer and "p/q" coefficients; the rank-3
    exponents may have negative entries."""
    rng = random.Random(rank)
    lo = -1 if rank == 3 else 0
    exps = set()
    while len(exps) < 12 * rank:
        exps.add(tuple(rng.randint(lo, 4) for _ in range(rank)))
    return [
        (e, rng.choice((rng.randint(-9, 9), f"{rng.randint(-9, 9)}/{rng.randint(1, 6)}")))
        for e in sorted(exps)
    ]


def series_documents() -> dict:
    docs = {}
    for rank in (2, 3, 4):
        terms = _seeded_terms(rank)
        truncation = max(sum(map(abs, e)) for e, _ in terms) + 1
        docs[f"ser{rank}"] = _series_doc(rank, terms, truncation, 3 if rank == 3 else None)
    docs["spellings"] = _series_doc(2, [((i, 1), c) for i, c in enumerate(SPELLINGS)], 20)
    for i, c in enumerate(BAD_SPELLINGS):
        docs[f"err{i}"] = _series_doc(2, [((0, 0), 1), ((1, 0), c)], 2)
    docs["true"] = _series_doc(2, [((1, 0), True)], 2)
    docs["float"] = _series_doc(2, [((1, 0), 1.5)], 2)
    docs["dup"] = _series_doc(2, [((1, 0), 1), ((1, 0), "2/3")], 2)
    docs["beyond"] = _series_doc(2, [((1, 0), 1), ((2, 1), 1)], 2)
    docs["complete"] = _series_doc(2, [((1, 0), 1)], 2, 3)
    docs["zeros"] = _series_doc(2, [((1, 0), 0), ((1, 0), "2/3"), ((5, 5), "0/3")], 2)
    docs["boolexp"] = _series_doc(2, [((1, True), 1)], 2)
    docs["shortexp"] = _series_doc(2, [((1,), 1)], 2)
    docs["nocoeff"] = dict(_series_doc(2, [], 2), terms=[{"exponent": [1, 0]}])
    docs["notobj"] = dict(_series_doc(2, [], 2), terms=[[1, 0]])
    # a semantic fault before a parse fault: the parse fault is reported
    docs["dupbad"] = _series_doc(2, [((1, 0), 1), ((1, 0), 2), ((0, 1), "1/0")], 2)
    docs["beyondexp"] = dict(
        _series_doc(2, [((1, 0), 1), ((3, 0), 1)], 2),
        terms=[{"exponent": [1, 0], "coefficient": 1}, {"exponent": [3, 0], "coefficient": 1},
               {"exponent": 5, "coefficient": 1}],
    )
    # a zero term never counts as a duplicate
    docs["zerodup"] = _series_doc(2, [((1, 0), 1), ((0, 1), "1/2"), ((1, 0), "0/7")], 2)
    # the duplicate is reported before the complete order
    docs["completedup"] = _series_doc(2, [((1, 0), 1), ((1, 0), 1)], 2, 3)
    return docs


@pytest.fixture(scope="module")
def series_files(tmp_path_factory) -> dict:
    root = tmp_path_factory.mktemp("golden-series")
    paths = {}
    for name, doc in series_documents().items():
        path = root / f"{name}.json"
        path.write_text(canonical_dumps(doc))
        paths[name] = str(path)
    return paths


def _series_calls() -> list:
    matrices = {
        2: ("2,1;1,1", "0,1;1,0"),
        3: ("1,1,0;0,1,0;0,2,1",),
        4: ("1,0,0,1;0,1,0,0;0,1,1,0;0,0,0,1",),
    }
    framings = {2: "1,0;1,1", 3: "1,0,0;1,1,0;0,0,1", 4: "1,1,0,0;0,1,0,0;0,0,1,0;0,0,1,1"}
    calls = []
    for rank, ms in matrices.items():
        name, F = f"ser{rank}", framings[rank]
        calls.append(f"series check {name}")
        calls.append(f"series check {name} --framing {F}")
        for M in ms:
            calls.append(f"series reframe {name} --matrix {M}")
            calls.append(f"series check {name} --matrix {M}")
            calls.append(f"series check {name} --framing {F} --matrix {M}")
    for name in ["spellings", "true", "float", "dup", "beyond", "complete", "zeros", "boolexp",
                 "shortexp", "nocoeff", "notobj", "dupbad", "beyondexp", "zerodup",
                 "completedup"] + [
        f"err{i}" for i in range(len(BAD_SPELLINGS))
    ]:
        calls.append(f"series check {name}")
        calls.append(f"series reframe {name} --matrix 1,1;0,1")
    calls += [
        "series reframe ser2 --matrix 2,0;0,1",
        "series reframe ser3 --matrix 1,0;0,1",
        "series check ser2 --framing 1,0;1,2",
        "series check ser2 --matrix 1,0,0;0,1,0;0,0,1",
    ]
    return calls


def run_captured_call(call: str, paths: dict, capsys) -> tuple:
    """(exit code, sha256 of stdout, sha256 of stderr) of one call; a word
    naming a document stands for its path."""
    words = call.split()
    code = cli.main(words[:2] + [paths.get(w, w) for w in words[2:]])
    captured = capsys.readouterr()
    return (
        code,
        hashlib.sha256(captured.out.encode()).hexdigest(),
        hashlib.sha256(captured.err.encode()).hexdigest(),
    )


SERIES_GOLDEN = {
    "series check ser2": (0, "1d501b7f8c0c3032c41ff429c45cbbb489b09aa5494b9554d9fa215de35cbf20", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "series check ser2 --framing 1,0;1,1": (1, "f1bd6ea3b8c03335d0a916120650906390336d8b3a972ea27c687c4654f5ca2a", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "series reframe ser2 --matrix 2,1;1,1": (0, "da313370003ad928933e481e7e5c60d441a2ce093790be4afac6b77379dabd95", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "series check ser2 --matrix 2,1;1,1": (0, "4e4d2ecdef0b29867e6db6e71d3a4ce4c997239133386ec7e07641696b95035b", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "series check ser2 --framing 1,0;1,1 --matrix 2,1;1,1": (1, "d17e8565599a8eec85541507afe113b40d61b2c944060c1e9a473da5aecf36f7", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "series reframe ser2 --matrix 0,1;1,0": (0, "cac228af73384e7e9070a4c3aaf9041f52e81aa828138856b25c9f0c0d6dd8c2", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "series check ser2 --matrix 0,1;1,0": (0, "4e4d2ecdef0b29867e6db6e71d3a4ce4c997239133386ec7e07641696b95035b", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "series check ser2 --framing 1,0;1,1 --matrix 0,1;1,0": (1, "9fa2aac909a8328c4d7fc4780236e3f73cb8b59ef810d39c37d50d971a24dc89", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "series check ser3": (1, "9c8dee3f07f76bf0bfa05719a6b6c975115efab45c8bc85ec9c92bbd6317d17f", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "series check ser3 --framing 1,0,0;1,1,0;0,0,1": (1, "9c8dee3f07f76bf0bfa05719a6b6c975115efab45c8bc85ec9c92bbd6317d17f", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "series reframe ser3 --matrix 1,1,0;0,1,0;0,2,1": (0, "6c407315f832fa6aba457b2f68f66def06cf9657a52c0b86eaaca60a26a424bb", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "series check ser3 --matrix 1,1,0;0,1,0;0,2,1": (1, "e34480e277b005e5246523b9f34f73859d4d016dcb089a18973607abbfa2510c", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "series check ser3 --framing 1,0,0;1,1,0;0,0,1 --matrix 1,1,0;0,1,0;0,2,1": (1, "e87a899dbfa090554d0410c1cd808860a9ac401442daaad7b6c59c8bc676d2ff", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "series check ser4": (0, "1d501b7f8c0c3032c41ff429c45cbbb489b09aa5494b9554d9fa215de35cbf20", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "series check ser4 --framing 1,1,0,0;0,1,0,0;0,0,1,0;0,0,1,1": (1, "1f19ed9de939e9214df7bf1c4a68449df9a39ab2a20a4cd743a174973b9df106", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "series reframe ser4 --matrix 1,0,0,1;0,1,0,0;0,1,1,0;0,0,0,1": (0, "b25a8fe9d446ccf1fe0acfd66e1df5016f5613c9e9d25bd51dce89490f870a4f", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "series check ser4 --matrix 1,0,0,1;0,1,0,0;0,1,1,0;0,0,0,1": (0, "4e4d2ecdef0b29867e6db6e71d3a4ce4c997239133386ec7e07641696b95035b", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "series check ser4 --framing 1,1,0,0;0,1,0,0;0,0,1,0;0,0,1,1 --matrix 1,0,0,1;0,1,0,0;0,1,1,0;0,0,0,1": (1, "68dbf2ac035048039d3a492631f54b023496a4482552b5fe01db346e0dffca5b", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "series check spellings": (0, "1d501b7f8c0c3032c41ff429c45cbbb489b09aa5494b9554d9fa215de35cbf20", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "series reframe spellings --matrix 1,1;0,1": (0, "4854328770e5bda6f7979ddfc85018fce8164158eed969b5b2911f3be1bd8afa", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "series check true": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "2950a84dd4b0bbc0c418b87b6e867cd4911f9e4c48d2dd59bc2c2e509087fa4a"),
    "series reframe true --matrix 1,1;0,1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "2950a84dd4b0bbc0c418b87b6e867cd4911f9e4c48d2dd59bc2c2e509087fa4a"),
    "series check float": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "e5557cc5ab0c5f7f8b5186df3b7281ce285542ce35f6d4718a8793cacdb6b2f8"),
    "series reframe float --matrix 1,1;0,1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "e5557cc5ab0c5f7f8b5186df3b7281ce285542ce35f6d4718a8793cacdb6b2f8"),
    "series check dup": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "d35059c490293cb15787f0d1c38298bd41ffc365e5bc6d1330635fd26f03d1ec"),
    "series reframe dup --matrix 1,1;0,1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "d35059c490293cb15787f0d1c38298bd41ffc365e5bc6d1330635fd26f03d1ec"),
    "series check beyond": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "51df34f4a8654594500d20d72cb53b3abb13ab10c777b9f5f9e4a938b50a3af1"),
    "series reframe beyond --matrix 1,1;0,1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "51df34f4a8654594500d20d72cb53b3abb13ab10c777b9f5f9e4a938b50a3af1"),
    "series check complete": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "ee9abb647405b56c4468f3d7a454dc31eee35785f3df251a13aaf28aefc03e3c"),
    "series reframe complete --matrix 1,1;0,1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "ee9abb647405b56c4468f3d7a454dc31eee35785f3df251a13aaf28aefc03e3c"),
    "series check zeros": (0, "1d501b7f8c0c3032c41ff429c45cbbb489b09aa5494b9554d9fa215de35cbf20", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "series reframe zeros --matrix 1,1;0,1": (0, "8f11cd01b0982c280e40e604165fd5d6caf2b70e861aac8ca6c7fceb29962820", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "series check boolexp": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "a3958410650b72282410a6172625cff47349139bc4a9740bef45f5a54310016a"),
    "series reframe boolexp --matrix 1,1;0,1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "a3958410650b72282410a6172625cff47349139bc4a9740bef45f5a54310016a"),
    "series check shortexp": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "a3958410650b72282410a6172625cff47349139bc4a9740bef45f5a54310016a"),
    "series reframe shortexp --matrix 1,1;0,1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "a3958410650b72282410a6172625cff47349139bc4a9740bef45f5a54310016a"),
    "series check nocoeff": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "3c1a50082fdb598f9479770b7dc2d66c600bbb7e736ecf83b3367e50c1daae72"),
    "series reframe nocoeff --matrix 1,1;0,1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "3c1a50082fdb598f9479770b7dc2d66c600bbb7e736ecf83b3367e50c1daae72"),
    "series check notobj": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "37b25012d33bad671a6c28809f6214d72b045f0dfefed33387f0600442182848"),
    "series reframe notobj --matrix 1,1;0,1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "37b25012d33bad671a6c28809f6214d72b045f0dfefed33387f0600442182848"),
    "series check dupbad": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "ce0a070e543794fd01f90c9f12a88779249cef46367e99e2eabf8955c56b297f"),
    "series reframe dupbad --matrix 1,1;0,1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "ce0a070e543794fd01f90c9f12a88779249cef46367e99e2eabf8955c56b297f"),
    "series check beyondexp": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "b5bd059ccda9c87c4136cfeefbb6ee0924c26dc730f2dbe05b117a01c1e9fbfd"),
    "series reframe beyondexp --matrix 1,1;0,1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "b5bd059ccda9c87c4136cfeefbb6ee0924c26dc730f2dbe05b117a01c1e9fbfd"),
    "series check zerodup": (0, "1d501b7f8c0c3032c41ff429c45cbbb489b09aa5494b9554d9fa215de35cbf20", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "series reframe zerodup --matrix 1,1;0,1": (0, "568593dabfb8608077722ce476af7beb1b50a234d3cea865a750bf73d3042005", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "series check completedup": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "d35059c490293cb15787f0d1c38298bd41ffc365e5bc6d1330635fd26f03d1ec"),
    "series reframe completedup --matrix 1,1;0,1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "d35059c490293cb15787f0d1c38298bd41ffc365e5bc6d1330635fd26f03d1ec"),
    "series check err0": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "cebd484fbdd69c905f9ffe3f33ef2f620dd17365c9a274d13584d1f685843ee7"),
    "series reframe err0 --matrix 1,1;0,1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "cebd484fbdd69c905f9ffe3f33ef2f620dd17365c9a274d13584d1f685843ee7"),
    "series check err1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "331b912ed8f2fcb289069b0f269def4c1f77da19b1f5607a8ab1c68ac7f6010a"),
    "series reframe err1 --matrix 1,1;0,1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "331b912ed8f2fcb289069b0f269def4c1f77da19b1f5607a8ab1c68ac7f6010a"),
    "series check err2": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "157c59e75b7377cef5a36dd631a807ad89c4d692ba06495bf5d1b2f88e1a333a"),
    "series reframe err2 --matrix 1,1;0,1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "157c59e75b7377cef5a36dd631a807ad89c4d692ba06495bf5d1b2f88e1a333a"),
    "series check err3": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "205e14cb01c94d812274430be60caad860c8378b9a6483e0af5405e424797f8a"),
    "series reframe err3 --matrix 1,1;0,1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "205e14cb01c94d812274430be60caad860c8378b9a6483e0af5405e424797f8a"),
    "series check err4": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "1712c06cd4bafc2c2e8c5e6d7548906e257c5724e7241c62a0947dda0c1fd9a1"),
    "series reframe err4 --matrix 1,1;0,1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "1712c06cd4bafc2c2e8c5e6d7548906e257c5724e7241c62a0947dda0c1fd9a1"),
    "series check err5": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "a9251b3fffb189b1f4993ddc508387bba29c7f4b70e5b58579210f78c9ea8010"),
    "series reframe err5 --matrix 1,1;0,1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "a9251b3fffb189b1f4993ddc508387bba29c7f4b70e5b58579210f78c9ea8010"),
    "series check err6": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "e26874fb40b0877036d69aa0d9f522b3a3dae91575c9577940fb55d67acef4f0"),
    "series reframe err6 --matrix 1,1;0,1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "e26874fb40b0877036d69aa0d9f522b3a3dae91575c9577940fb55d67acef4f0"),
    "series check err7": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "af2f86bc7968dea81b051ea7cba3ec1db141197576a2dcfcf61d91a209466deb"),
    "series reframe err7 --matrix 1,1;0,1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "af2f86bc7968dea81b051ea7cba3ec1db141197576a2dcfcf61d91a209466deb"),
    "series reframe ser2 --matrix 2,0;0,1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "22170b7a96ec6a1c1b3eeed4a7f4a12d7877ef036a781d86b5a5109fb5fb6352"),
    "series reframe ser3 --matrix 1,0;0,1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "b2f7d7fa648c38a097d4a1838d2eee2c4eafd86035c9bb1a17e0b3db46cd7228"),
    "series check ser2 --framing 1,0;1,2": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "6e1d89358d66fd22ba6b90489d27b665d68008b8541545e5f9b7acbb8cb363d7"),
    "series check ser2 --matrix 1,0,0;0,1,0;0,0,1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "b2f7d7fa648c38a097d4a1838d2eee2c4eafd86035c9bb1a17e0b3db46cd7228"),
}


@pytest.mark.parametrize("call", _series_calls())
def test_series_output_is_unchanged(call, series_files, capsys):
    assert run_captured_call(call, series_files, capsys) == SERIES_GOLDEN[call]


# -- monodromy -------------------------------------------------------------------------

# A dense pairing makes the bottom pairing <g0 | omega(z)> a nonconstant
# series on the quintic-like operator; against omega0 = (1, 0, 0, -1) that
# series vanishes at the origin.
DENSE = ((1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 3, 1))


def monodromy_documents() -> dict:
    elliptic = fixtures.elliptic_operator().rows
    quintic = fixtures.quintic_like_operator().rows
    product = [T.rows for T in fixtures.product_operators()]
    Q2, Q4 = fixtures.antidiagonal_pairing(2), fixtures.antidiagonal_pairing(4)
    docs = {}
    for i, c in enumerate((1, 4, Fraction(-3, 2))):
        docs[f"elliptic{i}"] = dump_monodromy([elliptic], Q2, (0, c))
        docs[f"quintic{i}"] = dump_monodromy([quintic], Q4, (c, 0, 0, 0))
        docs[f"product{i}"] = dump_monodromy(product, Q4, (c, 0, 0, 0))
    docs["dense"] = dump_monodromy([quintic], DENSE, (1, 1, 1, 1))
    docs["sign"] = dump_monodromy([elliptic], ((0, 1), (-1, 0)), (0, 1))
    docs["vanish"] = dump_monodromy([quintic], DENSE, (1, 0, 0, -1))
    docs["nopairing"] = dump_monodromy([elliptic], omega0=(0, 1))
    return docs


@pytest.fixture(scope="module")
def monodromy_files(tmp_path_factory) -> dict:
    root = tmp_path_factory.mktemp("golden-monodromy")
    paths = {}
    for name, doc in monodromy_documents().items():
        path = root / f"{name}.json"
        path.write_text(canonical_dumps(doc))
        paths[name] = str(path)
    return paths


def _monodromy_calls() -> list:
    calls = []
    for name in monodromy_documents():
        calls += [
            f"monodromy coords {name} --order 0",
            f"monodromy coords {name} --order 3",
            f"monodromy coords {name}",
            f"monodromy check {name}",
        ]
    return calls


MONODROMY_GOLDEN = {
    "monodromy coords elliptic0 --order 0": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "6fe96faff3553ab7a85936808660f1b5138948eb6bfcb2039b6494fa4e16bf0f"),
    "monodromy coords elliptic0 --order 3": (0, "a40822b02b2b527b0fe1117af4499b80d89de38f131ee1bb888b1b2071ab78fc", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "monodromy coords elliptic0": (0, "fa843b13fa096359aea8b432b23d995b56a8ae00d5d3d8e6706ed3040db3b17c", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "monodromy check elliptic0": (0, "00bfc8a5ec4551780d91de78131120f96aa4ee51b08c62b9f51b11b02d6eb2e0", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "monodromy coords quintic0 --order 0": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "6fe96faff3553ab7a85936808660f1b5138948eb6bfcb2039b6494fa4e16bf0f"),
    "monodromy coords quintic0 --order 3": (0, "a40822b02b2b527b0fe1117af4499b80d89de38f131ee1bb888b1b2071ab78fc", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "monodromy coords quintic0": (0, "fa843b13fa096359aea8b432b23d995b56a8ae00d5d3d8e6706ed3040db3b17c", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "monodromy check quintic0": (0, "b4f37dee1b693e4bcf0ceb71996ac91c6b9824fe088788247f124d0f3f14af16", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "monodromy coords product0 --order 0": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "6fe96faff3553ab7a85936808660f1b5138948eb6bfcb2039b6494fa4e16bf0f"),
    "monodromy coords product0 --order 3": (0, "00cf99e69623fdc96bc248fdf05a5fc08c94b31655803a79d673fe25e6356b4f", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "monodromy coords product0": (0, "9a14cffbe59506348a450f1e442278e3712c45e51bd7b1d88073699f68de871d", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "monodromy check product0": (0, "bed5a41e2457ed8fde96749be90599c350fd4738acfb7a9266e55f7d86ec0a1b", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "monodromy coords elliptic1 --order 0": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "6fe96faff3553ab7a85936808660f1b5138948eb6bfcb2039b6494fa4e16bf0f"),
    "monodromy coords elliptic1 --order 3": (0, "a40822b02b2b527b0fe1117af4499b80d89de38f131ee1bb888b1b2071ab78fc", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "monodromy coords elliptic1": (0, "fa843b13fa096359aea8b432b23d995b56a8ae00d5d3d8e6706ed3040db3b17c", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "monodromy check elliptic1": (0, "00bfc8a5ec4551780d91de78131120f96aa4ee51b08c62b9f51b11b02d6eb2e0", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "monodromy coords quintic1 --order 0": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "6fe96faff3553ab7a85936808660f1b5138948eb6bfcb2039b6494fa4e16bf0f"),
    "monodromy coords quintic1 --order 3": (0, "a40822b02b2b527b0fe1117af4499b80d89de38f131ee1bb888b1b2071ab78fc", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "monodromy coords quintic1": (0, "fa843b13fa096359aea8b432b23d995b56a8ae00d5d3d8e6706ed3040db3b17c", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "monodromy check quintic1": (0, "b4f37dee1b693e4bcf0ceb71996ac91c6b9824fe088788247f124d0f3f14af16", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "monodromy coords product1 --order 0": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "6fe96faff3553ab7a85936808660f1b5138948eb6bfcb2039b6494fa4e16bf0f"),
    "monodromy coords product1 --order 3": (0, "00cf99e69623fdc96bc248fdf05a5fc08c94b31655803a79d673fe25e6356b4f", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "monodromy coords product1": (0, "9a14cffbe59506348a450f1e442278e3712c45e51bd7b1d88073699f68de871d", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "monodromy check product1": (0, "bed5a41e2457ed8fde96749be90599c350fd4738acfb7a9266e55f7d86ec0a1b", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "monodromy coords elliptic2 --order 0": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "6fe96faff3553ab7a85936808660f1b5138948eb6bfcb2039b6494fa4e16bf0f"),
    "monodromy coords elliptic2 --order 3": (0, "a40822b02b2b527b0fe1117af4499b80d89de38f131ee1bb888b1b2071ab78fc", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "monodromy coords elliptic2": (0, "fa843b13fa096359aea8b432b23d995b56a8ae00d5d3d8e6706ed3040db3b17c", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "monodromy check elliptic2": (0, "00bfc8a5ec4551780d91de78131120f96aa4ee51b08c62b9f51b11b02d6eb2e0", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "monodromy coords quintic2 --order 0": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "6fe96faff3553ab7a85936808660f1b5138948eb6bfcb2039b6494fa4e16bf0f"),
    "monodromy coords quintic2 --order 3": (0, "a40822b02b2b527b0fe1117af4499b80d89de38f131ee1bb888b1b2071ab78fc", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "monodromy coords quintic2": (0, "fa843b13fa096359aea8b432b23d995b56a8ae00d5d3d8e6706ed3040db3b17c", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "monodromy check quintic2": (0, "b4f37dee1b693e4bcf0ceb71996ac91c6b9824fe088788247f124d0f3f14af16", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "monodromy coords product2 --order 0": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "6fe96faff3553ab7a85936808660f1b5138948eb6bfcb2039b6494fa4e16bf0f"),
    "monodromy coords product2 --order 3": (0, "00cf99e69623fdc96bc248fdf05a5fc08c94b31655803a79d673fe25e6356b4f", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "monodromy coords product2": (0, "9a14cffbe59506348a450f1e442278e3712c45e51bd7b1d88073699f68de871d", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "monodromy check product2": (0, "bed5a41e2457ed8fde96749be90599c350fd4738acfb7a9266e55f7d86ec0a1b", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "monodromy coords dense --order 0": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "6fe96faff3553ab7a85936808660f1b5138948eb6bfcb2039b6494fa4e16bf0f"),
    "monodromy coords dense --order 3": (1, "ba35916f00bcb467c9560d9cf846a44c082f9d5654b966ec9caf50fd617ece52", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "monodromy coords dense": (1, "3819d297e1dc05c68b9bf51ebef8e3dd6cfa28aca90ef2c651936f15e0ec44fd", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "monodromy check dense": (0, "b4f37dee1b693e4bcf0ceb71996ac91c6b9824fe088788247f124d0f3f14af16", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "monodromy coords sign --order 0": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "6fe96faff3553ab7a85936808660f1b5138948eb6bfcb2039b6494fa4e16bf0f"),
    "monodromy coords sign --order 3": (1, "ca2d1d83bf268abd417ee05c09c9ec22b6759e87ca45409fd50adc023cd989ce", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "monodromy coords sign": (1, "47e4d75557e5456f6991293db725772ab022609d2f137201be956ab7f9e6f181", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "monodromy check sign": (0, "00bfc8a5ec4551780d91de78131120f96aa4ee51b08c62b9f51b11b02d6eb2e0", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "monodromy coords vanish --order 0": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "6fe96faff3553ab7a85936808660f1b5138948eb6bfcb2039b6494fa4e16bf0f"),
    "monodromy coords vanish --order 3": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "1c29575bc6c1913d8b07de56c41a5e92a2e85ad56e6fe7e472d42377836930bf"),
    "monodromy coords vanish": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "1c29575bc6c1913d8b07de56c41a5e92a2e85ad56e6fe7e472d42377836930bf"),
    "monodromy check vanish": (0, "b4f37dee1b693e4bcf0ceb71996ac91c6b9824fe088788247f124d0f3f14af16", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "monodromy coords nopairing --order 0": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "1b61ebdd1be1a5e526cd023b7288486c165cb54f1fcd0e055721e759a4aa5f93"),
    "monodromy coords nopairing --order 3": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "1b61ebdd1be1a5e526cd023b7288486c165cb54f1fcd0e055721e759a4aa5f93"),
    "monodromy coords nopairing": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "1b61ebdd1be1a5e526cd023b7288486c165cb54f1fcd0e055721e759a4aa5f93"),
    "monodromy check nopairing": (0, "00bfc8a5ec4551780d91de78131120f96aa4ee51b08c62b9f51b11b02d6eb2e0", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.mark.parametrize("call", _monodromy_calls())
def test_monodromy_output_is_unchanged(call, monodromy_files, capsys):
    assert run_captured_call(call, monodromy_files, capsys) == MONODROMY_GOLDEN[call]
