"""Byte-identity guard for the fan and atlas subcommands.

Each entry of ``GOLDEN`` is one in-process CLI call with its exit code and
the sha256 of its stdout.  The calls run on the cusp fans of eight
discriminants, on their copies with the last member deleted, and on
seeded Stern-Brocot and octant fans, together with their atlases.  A
refactor that keeps these outputs byte-identical keeps the table; a change
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
    """File path of every fan and of the atlas of every fan that has one
    (under the fan's name plus ``.atlas``)."""
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
    return paths


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> dict:
    return write_files(tmp_path_factory.mktemp("golden"))


def run_call(call: str, files: dict, capsys) -> tuple:
    """(exit code, sha256 of stdout) of one table entry."""
    words = call.split()
    code = cli.main(words[:2] + [files[w] for w in words[2:]])
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
    "fan validate cusp3-del": (1, "90f8d60bf6b67ba0c9afc1386e7ad1ee8f888f3335c67a9ace30ef714d7b6740"),
    "fan validate cusp5-del": (1, "e14e14bf28ed99528e14b175df776f4453626df0c2355d103fb54aa376c611d1"),
    "fan validate cusp6-del": (1, "32da840f533262bdb48af94f74409e691bbe086429e6cade58826f55b8fe6d87"),
    "fan validate cusp7-del": (1, "32da840f533262bdb48af94f74409e691bbe086429e6cade58826f55b8fe6d87"),
    "fan validate cusp13-del": (1, "341c5bd2956abcb977d761c469ec572f2d07e2d52a5c18376d47ffbe7e7ed63b"),
    "fan validate cusp21-del": (1, "35b146ac898d8ed81214ffd2bff152fa200ebab1505f308a7298b6c885595395"),
    "fan validate cusp29-del": (1, "ca8feca625315730dfacd1cfc3b30a6e3fe7c46a57d7cd81236fd7959475a9c9"),
    "fan validate sb1": (0, "469ff29833833fdd2e281d4271a920edd2c08cae187ef6421e032ca0ded4f3a7"),
    "fan validate sb2": (0, "469ff29833833fdd2e281d4271a920edd2c08cae187ef6421e032ca0ded4f3a7"),
    "fan validate oct1": (0, "469ff29833833fdd2e281d4271a920edd2c08cae187ef6421e032ca0ded4f3a7"),
    "fan validate oct2": (0, "469ff29833833fdd2e281d4271a920edd2c08cae187ef6421e032ca0ded4f3a7"),
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
}


@pytest.mark.parametrize("call", sorted(GOLDEN))
def test_cli_output_is_unchanged(call, files, capsys):
    assert run_call(call, files, capsys) == GOLDEN[call]
