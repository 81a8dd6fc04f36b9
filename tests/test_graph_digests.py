"""Pinned SHA-256 digests of `graph make` files.

The digests were taken from the builders and writer that stored every edge
as an `Edge` object, before graphs were stored as index arrays, so any change
to vertex or edge order, edge ids or file layout fails here loudly. The cases
are those the benchmark's CLI tour makes (the odd and even spheres at
n = 1..12, the projective graphs at n = 1..6, and its four lens cases at
their base weights), the projective graph at n = 10 and the README's lens.
Update them only for a deliberate, documented change of output.
"""

import contextlib
import hashlib
import io as stdio

import pytest

from graphlift import cli

DIGESTS = {
    ('sphere-odd', 1):
        "b97a5e3b0200174600ca65a081f474c9bf2c54cca18c1e128efaf0afba436071",
    ('sphere-odd', 2):
        "128624befbb677de11a346eb9f884caf40c9e8115c4354c4ebd94e83f37a889e",
    ('sphere-odd', 3):
        "8809f7d86616ca97e552d80d40d700af5bc12b6ef5991df9d0c45c6dd396e04f",
    ('sphere-odd', 4):
        "20153104d72633de5ba55a0baa29e36834681848f1e017f4367ce6c7d8bbb30f",
    ('sphere-odd', 5):
        "1d4ea92cc753944eff9c24f42c4efdab750fd2946e293d25a40835e144bb75fd",
    ('sphere-odd', 6):
        "5ba72596e43d722585af5124897910476e6facaa640ccf791a2241b9523d5a46",
    ('sphere-odd', 7):
        "8ec634c40cf7aee7ebc72f2c8a661476799da166437cb39a057388c11a18dd4b",
    ('sphere-odd', 8):
        "12e1de7688ffa2b6651d3baf1726649c0ca4658d562ed7c1e576fa1e7d1ba709",
    ('sphere-odd', 9):
        "8635711d04bd191243e515a209ca5f2ca58c56edadbd1d6ba918d4e2afea4433",
    ('sphere-odd', 10):
        "3d238c3c9f5b477de564c41394abee56add1c640a8e68c7e96603830892133db",
    ('sphere-odd', 11):
        "d1cc4046e1fcceb6de18ab05957a740672b00d4c9e3ce80a8c5e67bdfcec21b6",
    ('sphere-odd', 12):
        "46d4e00f7f75419de127abcbf6ae2bc23285aaf463461fd83d3290fbd13f91c5",
    ('sphere-even', 1):
        "4e544770f8050ba6d7fc0445fab228344a7f347a4c5fab66d5d381d93dea3a84",
    ('sphere-even', 2):
        "518aca32a3b5dc6fb1c624474967032f3ce4071bcee14ba24616c51847bf3ba2",
    ('sphere-even', 3):
        "9b59f333656f4b8d53b49022dd1d41a168eef5f134aded86570c03dd0a818687",
    ('sphere-even', 4):
        "39707538c9fae64a1c8184bb9cd7f03f32b814e0f1858beef033fbab2e737b81",
    ('sphere-even', 5):
        "ffdfe67cabc96f575a620d522a9dece1a0b56e7d02a4ee0b5b0ac0d34431a10a",
    ('sphere-even', 6):
        "61922121f49d6421a7aac790836d842c5af43db8dd82b692716a701830d4a813",
    ('sphere-even', 7):
        "5bcd56c0f986b4c60fec74439bec29f16bbeaa536aaafcad6fe6d49297ce8f58",
    ('sphere-even', 8):
        "6a0ddaf374cab256060d15ece02f26412576ecd703b7791bba12fc985c8e7138",
    ('sphere-even', 9):
        "28d4f4ddf2ff071b55feb7493471da8d16bb902da38edfb4c75ee9b1b19822ba",
    ('sphere-even', 10):
        "1db603657792653f2ac38b0bd83ced23027d8810ad0861e9ce0ca91f8953dd6f",
    ('sphere-even', 11):
        "e06ca6c6fcf1efa8b998aeb331dee6be5f61f8d5b9affd6dad88440226802021",
    ('sphere-even', 12):
        "5a176f89ab1fbd0a14b868aedfa22b60ae2b58208d88c48952cdbee2ff20e33d",
    ('projective', 1):
        "c841d6f23a770185e90591cbd9a3aa37bacdb8cf21029fbaf803ebcbecde904f",
    ('projective', 2):
        "498a93a36cf7014cf8b8717f93e2aaf7a0cedf8f42c4754642feac1592be5ee1",
    ('projective', 3):
        "7a3f628ad9c5596551b7c60904b1e7548d6942ab495f5a09ac2a6c39f4c6e32f",
    ('projective', 4):
        "0cdd335f949597e2967291ed7ccc2bd59658313033aa17d553cf0c814721d421",
    ('projective', 5):
        "f329cb23d328ce121673ec415d3862e2a43ea0f28b6bdf95e7c6e2f11129e269",
    ('projective', 6):
        "2d2db391f32a4480e3b98d9119c2e1749d562208787d7f5d97ca7851b1969595",
    # the smallest projective graph whose odd-sphere edge ids, such as
    # "10_1", do not sort in the order the odd sphere lists them
    ('projective', 10):
        "6e6c11ce189f4f72554584d938aba6ac6ff8a4f14bd521a5d1c06a4132477bbe",
    ('lens', 2, 3, '1,1'):
        "825edd45badc4dbc708269c4dca0723375875b5b24d8b6b92ef63868983fcdb9",
    ('lens', 2, 3, '1,2'):
        "2cebfc4373224295fba761e0706c859ddf9e95b21fd30196b8e95116d15b6bfa",
    ('lens', 3, 4, '1,3,1'):
        "61c660ab6998e7e50d429c96d44dba7306e2036040cfd547441b7a3cb4c19301",
    ('lens', 4, 5, '1,2,3,4'):
        "0f36ed4083e3a5fd2a66c3245ab3a3e4fb841c346ffa92aac9bf99364654a981",
    ('lens', 5, 7, '1,2,3,4,5'):
        "1953fe1e4eca36e8ef9c8e7b61136f77fa0e6bbbbe9eb79ba067c70a672aa8e1",
}


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_graph_file_matches_pinned_digest(tmp_path, case):
    family, n, *lens = case
    flags = ["--p", str(lens[0]), "--weights", lens[1]] if lens else []
    path = tmp_path / "graph.json"
    with contextlib.redirect_stdout(stdio.StringIO()):
        assert cli.run(["graph", "make", family, "--n", str(n), *flags,
                        "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[case]
