"""Graph-machine records and dump files, byte for byte.

The sha256 of each output below was taken before the graph machine coded
its vertices as index-set bitmasks (at b98c213). A change inside
bijection.py that alters one record or one dump line fails here.
"""

import hashlib

import pytest

from mzvfactor import cli

_RECORDS = {
    ("verify", "residuals", "--k", "3", "--N", "12"):
        "b2623b05b475449658fe7f8a8930e596c8bc2b166add71009175f42a03e52ce2",
    ("verify", "bijection-alpha", "--k", "3", "--bound", "8"):
        "a3e9e63fc8dadfaa73bf84038ca0a9f8213814452abf9f18b9540551aa6d18ae",
    ("verify", "bijection-beta", "--M", "8"):
        "370565dd7d8d97ec775e858e946903e498d2ba314f4716840ace61fc7c360893",
}

_DUMPS = {
    ("bijection-dump", "--kind", "alpha", "--k", "3", "--bound", "6"): {
        "alpha_k3_b6.components.txt":
            "5d9adae551a2be43c9ae9b8abfe16df3b220cfe6514e6fe8754e9f2f707e9bea",
        "alpha_k3_b6.residual_singletons.txt":
            "d68c4b2e369f31ae5e24cbb73433abe4e0742da040429d4444d3615ec3737612",
    },
    ("bijection-dump", "--kind", "beta", "--k", "2", "--bound", "24",
     "--m-sweep", "8,16,24"): {
        "beta_k2.components.txt":
            "17235c68ec484ef815d9fe82926b3f12c05bd35d72a552f56b68c622880c00ff",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("argv", list(_RECORDS), ids=" ".join)
def test_json_records_are_byte_identical(argv, capsys):
    assert cli.main([*argv, "--format", "json"]) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == _RECORDS[argv]


@pytest.mark.parametrize("argv", list(_DUMPS), ids=" ".join)
def test_dump_files_are_byte_identical(argv, tmp_path):
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    files = {p.name: _sha256(p.read_bytes()) for p in tmp_path.iterdir()}
    assert files == _DUMPS[argv]
