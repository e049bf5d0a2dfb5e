"""Byte-identity guard for the cusp, fan and atlas subcommands.

Each entry of ``GOLDEN`` is one in-process CLI call with its exit code and
the sha256 of its stdout.  The calls run on the cusp fans of eight
discriminants, on their copies with the last member deleted, and on
seeded Stern-Brocot and octant fans, together with their atlases; the
quadratic-output commands (cusp fans and figures, the SBB decomposition of
the cusp cone and its validation, strata and atlases of the cusp fans) run
on the same eight discriminants.  A refactor that keeps these outputs byte-identical keeps the table; a change
that means to alter an output updates the affected entries and says why.
"""

import hashlib
import random

import pytest

import fixtures
from semitoric import CuspData, Decomposition, build_fan, cli
from semitoric.connection import atlas_from_fan
from semitoric.errors import DegenerateInputError
from semitoric.formats import canonical_dumps, dump_atlas, dump_fan

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
