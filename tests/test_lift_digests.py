"""Pinned SHA-256 digests of `lift build` files and `lift check` stdout.

The "build" and "check" digests were taken from the DFS-based basis builder
that the path trie replaced, and those of the wide lens module from the
one-row-per-edge target table that the per-block edge images replaced, so any
change to basis order, file layout or residual arithmetic fails here loudly.
The "build" digests are of the earlier "partial-maps" layout: each file is
expanded back to it (`expand_edge_images`) and re-encoded with
`json.dumps(doc, indent=2)`. The "edge-images" digests are of the file bytes
as written. Update them only for a deliberate, documented change of output.
"""

import contextlib
import hashlib
import io as stdio
import json

import pytest

from graphlift import (
    LensParams,
    cli,
    io,
    lens_graph_coprime,
    random_module,
    sphere_even_graph,
    sphere_odd_graph,
)

from helpers import expand_edge_images


def _modules():
    odd = sphere_odd_graph(4)
    # 24 edges, up to 11 of them parallel between one pair of vertices
    lens = lens_graph_coprime(LensParams(3, 4, (1, 3, 1)))
    return {
        "odd4": random_module(odd, {v: 2 for v in odd.vertices}, 1),
        "even2-zero": random_module(sphere_even_graph(2),
                                    {"1": 1, "2": 1, "3": 0, "4": 2}, 3),
        "lens3-wide": random_module(lens, {v: 2 for v in lens.vertices}, 1),
    }


BUILD_LEVELS = {"odd4": range(1, 5), "even2-zero": range(1, 5),
                "lens3-wide": range(1, 4)}
CHECK_LEVELS = range(1, 7)

DIGESTS = {
    ("even2-zero", "build", 1):
        "cb71163690e1b9f10069419959a2e0c5ade5c0a3f4f6a1b62a0552a4c172dd13",
    ("even2-zero", "build", 2):
        "5f0b24a5849a8b395cfb6b9c74ec80f2fdf3ff6d23cf51a8eb8c627832050249",
    ("even2-zero", "build", 3):
        "1d118cc51cbc5c80cbb626928ec358e2c08ab4de6f6e4bb36fb499fd67e732dc",
    ("even2-zero", "build", 4):
        "7df42d0257b61db7eb3f5500a8b4da37d9250f03df589b93f01ced259bd999f5",
    ("even2-zero", "check", 1):
        "9e288ff2e292d4ddcae3e2ee0a74ce466acc7d5565cf1842f503788174cb1667",
    ("even2-zero", "check", 2):
        "717d119ece6aaab50e6b71d9c2bdc6d826a5b3f65e2e717f267824bb9ee75389",
    ("even2-zero", "check", 3):
        "c722a19ea5b029d4c46b32a5ec8f616a02763cd0c44dc13cbf857e1e262d576c",
    ("even2-zero", "check", 4):
        "457cf4330e0be049ab924d3eb475a374677cdbc74a235923b65d8948795feb9e",
    ("even2-zero", "check", 5):
        "72b8f11815e873775a0f1cd52b0eb825253724bec301d50a07b2e45377f5fa23",
    ("even2-zero", "check", 6):
        "24c8347aef5003283cfadde34ed21778b0ab52a273bf53070452298c8980191f",
    ("lens3-wide", "build", 1):
        "0dda2f66882905559b3901d25fe30e223a7d6771c4773419bc428c71e648d69a",
    ("lens3-wide", "build", 2):
        "4879dc1ef4f1d6c7056f017f5c987dcb454e06575b3afd56b32ef36cc6b10e96",
    ("lens3-wide", "build", 3):
        "f82a045bff9d36047241c4b8499c85e74cf18a97d7fdce244161c29b80093311",
    ("lens3-wide", "check", 1):
        "9d37fa889e2977ba28c7e77799512acb7786f533a4d7ab419dcfa8242947d250",
    ("lens3-wide", "check", 2):
        "d88ad9862b1eb4e09962eb78351e65edad1bff56c1c63cfaf93805428175e4e1",
    ("lens3-wide", "check", 3):
        "9ad9ea803298cbaa7c099be6829f5c0c3b3d32aa99b92bf782d3a899af519718",
    ("lens3-wide", "check", 4):
        "961329886fd9ebfbbe727bc73f5b78ccbfc46f4294e8db6a53a75846cd4423c4",
    ("lens3-wide", "check", 5):
        "e095fe9c5c9ca6b5f12a8b66e1daac44d192fe8bf2ca227fb536b7b6c2827bfd",
    ("lens3-wide", "check", 6):
        "4ec8252025bdf66c08ac8c7b47a7dfc72ced7aed6770a96666018df5b102ab50",
    ("odd4", "build", 1):
        "59dfb742d6d9b8bd9967b06238516140263c6c1b1276c1d6a973b286ba083e7c",
    ("odd4", "build", 2):
        "79c48dfc81b9962fae50e6baef08a7a4645cb85aa287abed62b177494b847fcf",
    ("odd4", "build", 3):
        "0f319935628935c0f95121be5242bbdfafe71413b7469191e50fd031556ea4de",
    ("odd4", "build", 4):
        "d65b13dafae5371ac2ea7e008944803efd6751e08a0415eefa58492ef395a675",
    ("odd4", "check", 1):
        "8417ce08c581f80387bc5f426a2342d172d09fb91fa0d8f532d4b38152e58b7d",
    ("odd4", "check", 2):
        "2a935a44e6390f3ccffed817bc3bee9e5cf040dab9d2bfa67261383a60f6d274",
    ("odd4", "check", 3):
        "c23fec6d70afef5b64cac8e256384ce3c8601e2bb1c5c76c56a7c42c96d8fe1c",
    ("odd4", "check", 4):
        "8ea4950bb80cda62c6137b0efc830f7ce05e1cdb3a6244c4f7a5d498d689c493",
    ("odd4", "check", 5):
        "db1f4fee5342b037faf54eaedd57dee2b8582b56d3f77ff024666514bdbff917",
    ("odd4", "check", 6):
        "bb2a9c69c18b8a67db678476dbad1a4b127d720bff617f79e42445993406ab51",
}

FILE_DIGESTS = {
    ("even2-zero", "edge-images", 1):
        "aaa3b5dce57d9201ee65eea67a6c6ee87a8bfc33628945ab5bc187f0ffee40b4",
    ("even2-zero", "edge-images", 2):
        "e0289bc02d073c9721f5f70d5d488ba9916b1fab0f11bf862d58585e7880cbec",
    ("even2-zero", "edge-images", 3):
        "c7037f4fa27cc7e83db2ac6d6a97c9abdb61b77f92853926fc3a5f0427ef3de0",
    ("even2-zero", "edge-images", 4):
        "6e366583107539b332efc53c4d2c7a68fe739c2a68e1a87f71bafe97522fccad",
    ("lens3-wide", "edge-images", 1):
        "54441c10a9da1b0e1b7b92e3851502bf6532b5e57cdae1254df0ec066db59b36",
    ("lens3-wide", "edge-images", 2):
        "afbc1a659fcb1bab26daeb5bec56f02686fdf180a10594f5d3332d84760da536",
    ("lens3-wide", "edge-images", 3):
        "3d394002b1fa521e62906e6772b44b4be32c2b1f847c8efa413032539d695eb6",
    ("odd4", "edge-images", 1):
        "e6fc1e5911e85fffefd76556809e40bac08ed9ac9044722999cafa6145603856",
    ("odd4", "edge-images", 2):
        "ce1de3b032a184da8129a716f1f6b16dbf142c9182d3027a86fdd89d2e6e232d",
    ("odd4", "edge-images", 3):
        "031f9746cf8a4966cade260a0636cfb8c9e5518b419590a4f8d4ca97df36a666",
    ("odd4", "edge-images", 4):
        "d39e5177f5ef6780a87f42bf77eeecfee3cbed5b88bedbe0e7f4dc0f83f9e114",
}


def _digests(work) -> dict:
    out = {}
    for name, module in _modules().items():
        src = str(work / f"{name}.json")
        io.write_json(src, io.module_to_dict(module))
        for k in BUILD_LEVELS[name]:
            dst = work / f"{name}-lift{k}.json"
            with contextlib.redirect_stdout(stdio.StringIO()):
                assert cli.run(["lift", "build", "--module", src, "--level", str(k),
                                "--out", str(dst)]) == 0
            raw = dst.read_bytes()
            out[(name, "edge-images", k)] = hashlib.sha256(raw).hexdigest()
            expanded = json.dumps(expand_edge_images(json.loads(raw)), indent=2) + "\n"
            out[(name, "build", k)] = hashlib.sha256(expanded.encode()).hexdigest()
        for k in CHECK_LEVELS:
            text = stdio.StringIO()
            with contextlib.redirect_stdout(text):
                assert cli.run(["lift", "check", "--module", src,
                                "--level", str(k)]) == 0
            out[(name, "check", k)] = hashlib.sha256(
                text.getvalue().encode()).hexdigest()
    return out


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return _digests(tmp_path_factory.mktemp("digests"))


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_output_matches_pinned_digest(digests, key):
    assert digests[key] == DIGESTS[key]


@pytest.mark.parametrize("key", sorted(FILE_DIGESTS))
def test_file_matches_pinned_digest(digests, key):
    assert digests[key] == FILE_DIGESTS[key]


def test_every_output_is_pinned(digests):
    assert set(digests) == set(DIGESTS) | set(FILE_DIGESTS)
